"""Message envelopes and reply construction."""

from repro.net.message import Message, MessageKind, ReplyPayload


class TestMessage:
    def test_reply_swaps_endpoints(self):
        request = Message(kind=MessageKind.PING, src="a", dst="b")
        reply = request.reply("pong")
        assert (reply.src, reply.dst) == ("b", "a")
        assert reply.kind is MessageKind.REPLY
        assert reply.in_reply_to is MessageKind.PING
        assert reply.payload == "pong"

    def test_is_local(self):
        assert Message(kind=MessageKind.FIND, src="a", dst="a").is_local
        assert not Message(kind=MessageKind.FIND, src="a", dst="b").is_local

    def test_fresh_message_ids(self):
        a = Message(kind=MessageKind.PING, src="a", dst="b")
        b = Message(kind=MessageKind.PING, src="a", dst="b")
        assert a.msg_id != b.msg_id

    def test_describe_request(self):
        msg = Message(kind=MessageKind.INVOKE, src="a", dst="b")
        assert msg.describe() == "a -> b: INVOKE"

    def test_describe_reply_names_the_request_kind(self):
        reply = Message(kind=MessageKind.INVOKE, src="a", dst="b").reply(1)
        assert reply.describe() == "b -> a: REPLY(INVOKE)"

    def test_requests_are_not_oneway(self):
        assert not Message(kind=MessageKind.INVOKE, src="a", dst="b").oneway
        assert not Message(kind=MessageKind.INVOKE, src="a",
                           dst="b").reply(1).oneway


class TestReplyPayload:
    def test_value_payload(self):
        payload = ReplyPayload(value=42)
        assert not payload.is_error
        assert payload.value == 42

    def test_error_payload(self):
        error = ValueError("boom")
        payload = ReplyPayload(error=error)
        assert payload.is_error
        assert payload.error is error
