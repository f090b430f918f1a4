"""Message-trace recording and queries (the figure-reproduction instrument)."""

import gc
import weakref

from repro.net.message import Message, MessageKind
from repro.net.trace import MessageTrace


def _msg(kind=MessageKind.PING, src="a", dst="b") -> Message:
    return Message(kind=kind, src=src, dst=dst)


class TestRecording:
    def test_sequence_numbers_increase(self):
        trace = MessageTrace()
        trace.record(_msg(), time_ms=0.0)
        trace.record(_msg(), time_ms=1.0)
        first, second = trace.events()
        assert (first.seq, second.seq) == (1, 2)

    def test_reply_kind_rendering(self):
        trace = MessageTrace()
        trace.record(_msg().reply("x"), time_ms=0.0)
        (event,) = trace.events()
        assert event.kind == "REPLY(PING)"

    def test_len_and_clear(self):
        trace = MessageTrace()
        trace.record(_msg(), 0.0)
        trace.record(_msg(), 0.0)
        assert len(trace) == 2
        trace.clear()
        assert len(trace) == 0

    def test_local_flag(self):
        trace = MessageTrace()
        trace.record(_msg(src="a", dst="a"), 0.0)
        assert trace.events()[0].local

    def test_measured_size_does_not_pin_the_payload(self):
        """With ``nbytes`` supplied the trace keeps header fields only.

        A streamed move's megabyte must not stay alive until someone
        reads or clears the trace.
        """

        class Payload:
            pass

        payload = Payload()
        alive = weakref.ref(payload)
        trace = MessageTrace()
        trace.record(Message(kind=MessageKind.INVOKE, src="a", dst="b",
                             payload=payload), 0.0, nbytes=1234)
        del payload
        gc.collect()
        assert alive() is None
        assert len(trace) == 1
        assert trace.summary() == {"INVOKE": 1}
        assert trace.remote_bytes() == 1234


class TestQueries:
    def _traced(self) -> MessageTrace:
        trace = MessageTrace()
        trace.record(_msg(MessageKind.FIND, "a", "a"), 0.0)
        trace.record(_msg(MessageKind.INVOKE, "a", "b"), 1.0)
        trace.record(_msg(MessageKind.INVOKE, "a", "b"), 2.0, dropped=True)
        trace.record(_msg(MessageKind.OBJECT_TRANSFER, "b", "c"), 3.0)
        return trace

    def test_filtered_by_kind(self):
        events = self._traced().filtered(kinds=["INVOKE"])
        assert [e.kind for e in events] == ["INVOKE"]

    def test_filtered_remote_only(self):
        events = self._traced().filtered(remote_only=True)
        assert all(not e.local for e in events)
        assert len(events) == 2

    def test_dropped_hidden_by_default(self):
        assert all(not e.dropped for e in self._traced().filtered())

    def test_dropped_visible_on_request(self):
        events = self._traced().filtered(include_dropped=True)
        assert any(e.dropped for e in events)

    def test_kinds_sequence(self):
        assert self._traced().kinds() == ["FIND", "INVOKE", "OBJECT_TRANSFER"]

    def test_summary_excludes_drops(self):
        summary = self._traced().summary()
        assert summary["INVOKE"] == 1

    def test_remote_message_count(self):
        assert self._traced().remote_message_count() == 2

    def test_arrows_format(self):
        arrows = self._traced().arrows()
        assert arrows[0] == "a -> a: FIND"

    def test_dropped_arrow_is_marked(self):
        trace = MessageTrace()
        trace.record(_msg(), 0.0, dropped=True)
        assert "[LOST]" in trace.events()[0].arrow()
