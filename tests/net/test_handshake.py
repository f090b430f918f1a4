"""HELLO handshake, wire-level codec negotiation, and the address book.

Two ``TcpNetwork`` instances in one test process stand in for two
*processes*: they share no node registry, so anything that works between
them — dialing, codec negotiation, reply routing — provably happened on
the wire, not through in-process state.

The wire contract's refusals are driven by *fake peers* — raw sockets
speaking deliberately wrong protocol at a real ``TcpNetwork`` — from
both sides: a real client dialling a fake server, and a fake client
dialling a real server.  Every refusal must name its cause, run no
handler, close the connection it opened, and leave the transport able
to talk to healthy peers.
"""

import os
import pickle
import queue
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.errors import (
    ConfigurationError,
    NodeUnreachableError,
    ProtocolMismatchError,
)
from repro.net import codec, wirecodec
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import Message, MessageKind
from repro.net.reactor import FrameError
from repro.net.tcpnet import _HELLO_MAX_BYTES, TcpNetwork

BIG = b"state" * 100_000  # well above the compress threshold


@pytest.fixture
def nets():
    """Factory for isolated transports, all torn down after the test."""
    created = []

    def factory(**kwargs):
        kwargs.setdefault("compress_threshold", 1024)
        net = TcpNetwork(**kwargs)
        created.append(net)
        return net

    yield factory
    for net in created:
        net.shutdown()


def link(a, a_node, b, b_node):
    """Teach two transports each other's endpoint (a seed list in miniature)."""
    a.connect(b_node, b.endpoint_of(b_node))
    b.connect(a_node, a.endpoint_of(a_node))


class TestEndpoint:
    def test_parse_roundtrip(self):
        endpoint = Endpoint.parse("10.0.0.7:9001")
        assert endpoint == Endpoint("10.0.0.7", 9001)
        assert str(endpoint) == "10.0.0.7:9001"
        assert endpoint.address() == ("10.0.0.7", 9001)

    def test_parse_rejects_garbage(self):
        for bad in ("no-port", ":123", "host:notaport"):
            with pytest.raises(ConfigurationError):
                Endpoint.parse(bad)

    def test_port_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            Endpoint("h", 0)
        with pytest.raises(ConfigurationError):
            Endpoint("h", 70000)


class TestAddressBook:
    def test_unknown_peer_is_unreachable(self, nets):
        net = nets()
        net.register("a", lambda m: "ok")
        with pytest.raises(NodeUnreachableError):
            net.call("a", "stranger", MessageKind.PING)

    def test_connected_peer_is_dialable_and_listed(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        a.connect("worker", b.endpoint_of("worker"))
        assert a.nodes() == ["hub", "worker"]
        assert a.call("hub", "worker", MessageKind.PING) == "pong"

    def test_rejoining_peer_new_endpoint_wins_over_stale_entry(self, nets):
        """A peer that comes back on a fresh port must be dialed there —
        the stale address-book entry (and channels built on it) lose."""
        a = nets()
        a.register("hub", lambda m: "ok")
        first = nets()
        first.register("worker", lambda m: "first-incarnation")
        a.connect("worker", first.endpoint_of("worker"))
        assert a.call("hub", "worker", MessageKind.PING) == "first-incarnation"
        assert a.open_channels() == 1

        second = nets()
        second.register("worker", lambda m: "second-incarnation")
        first.shutdown()
        a.connect("worker", second.endpoint_of("worker"))  # re-join, new port
        assert a.call("hub", "worker", MessageKind.PING) == "second-incarnation"
        assert a.endpoint_of("worker") == second.endpoint_of("worker")

    def test_forget_peer_prunes_every_record(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        a.connect("worker", b.endpoint_of("worker"))
        assert a.call("hub", "worker", MessageKind.PING) == "pong"
        assert a.link_latency_s("worker") is not None  # EWMA recorded
        a.forget_peer("worker")
        assert a.endpoint_of("worker") is None
        assert a.link_latency_s("worker") is None
        assert "worker" not in a.nodes()
        assert a.open_channels() == 0

    def test_unregister_prunes_link_state(self, nets):
        """Deregistration of a local node leaves no EWMA or codec
        advertisement behind (a long-lived transport must not leak)."""
        net = nets()
        net.register("a", lambda m: "ok")
        net.register("b", lambda m: "pong")
        assert net.call("a", "b", MessageKind.PING) == "pong"
        assert net.link_latency_s("b") is not None
        net.advertise_codecs("b", ())
        net.unregister("b")
        assert net.link_latency_s("b") is None
        # The HELLO override went with the node: a re-registration
        # advertises everything again.
        net.register("b", lambda m: "pong")
        assert net.call("a", "b", MessageKind.PING) == "pong"
        assert net.negotiated_codecs("a", "b") == codec.available_codecs()

    def test_fixed_port_pinning(self, nets):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        net = nets(ports={"seed": port})
        net.register("seed", lambda m: "pong")
        assert net.port_of("seed") == port
        assert net.endpoint_of("seed") == Endpoint("127.0.0.1", port)


class TestHandshake:
    def test_codec_negotiation_happens_on_the_wire(self, nets, monkeypatch):
        """Two transports that share no registry still compress toward
        each other — the advertisement crossed in the HELLO frames.
        (uds=False: a same-host Unix-socket channel would skip
        compression outright; force TCP to observe the negotiated path.)"""
        a, b = nets(uds=False), nets(uds=False)
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: len(m.payload))
        link(a, "hub", b, "worker")
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert a.call("hub", "worker", MessageKind.INVOKE, BIG) == len(BIG)
        assert codec.ZLIB in compressions
        assert a.negotiated_codecs("hub", "worker") == codec.available_codecs()

    def test_advertise_codecs_override_rides_the_hello(self, nets, monkeypatch):
        """An explicit empty advertisement (``()``) crosses the wire:
        the *other transport* falls back to raw toward that node."""
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: len(m.payload))
        b.advertise_codecs("worker", ())  # a build with no codecs
        link(a, "hub", b, "worker")
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert a.call("hub", "worker", MessageKind.INVOKE, BIG) == len(BIG)
        assert compressions == []
        assert a.negotiated_codecs("hub", "worker") == ()

    def test_hello_frames_do_not_appear_in_traces(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        link(a, "hub", b, "worker")
        assert a.call("hub", "worker", MessageKind.PING) == "pong"
        assert set(b.trace.kinds()) == {"PING", "REPLY(PING)"}

    def test_pipelined_traffic_after_handshake(self, nets):
        """The handshake must not disturb the pipelined waiter machinery:
        N overlapped exchanges on the freshly negotiated channel."""
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: m.payload * 2)
        link(a, "hub", b, "worker")
        futures = [
            a.call_async("hub", "worker", MessageKind.INVOKE, i)
            for i in range(16)
        ]
        assert [f.result(5.0) for f in futures] == [i * 2 for i in range(16)]
        assert a.open_channels() == 1

    def test_hello_settings_are_forward_compatible(self):
        hello = Hello(version=PROTOCOL_VERSION, node_id="n",
                      codecs=("zlib",), settings={"unknown-key": 42})
        assert hello.settings["unknown-key"] == 42  # carried, never interpreted


# ---------------------------------------------------------------------------
# The wire contract's refusals, driven by fake peers
# ---------------------------------------------------------------------------

DRIFTED_FORMAT = "bin1:000000000000"


def frame(body: bytes, ident: int = codec.RAW) -> bytes:
    return struct.pack(">I", len(body) | (ident << 29)) + body


def hello_frame(version=PROTOCOL_VERSION, wire=wirecodec.WIRE_FORMAT,
                node_id="fake") -> bytes:
    return frame(pickle.dumps(Hello(
        version=version, node_id=node_id,
        settings={wirecodec.WIRE_SETTING: wire},
    )))


def envelope_frame(message: Message) -> bytes:
    return frame(b"".join(bytes(p) for p in wirecodec.encode_envelope(message)))


def read_frame(sock) -> bytes:
    """One frame body off a blocking socket; ``EOFError`` at orderly EOF."""
    def exactly(n):
        chunks = b""
        while len(chunks) < n:
            chunk = sock.recv(n - len(chunks))
            if not chunk:
                raise EOFError
            chunks += chunk
        return chunks
    (word,) = struct.unpack(">I", exactly(4))
    return exactly(word & ((1 << 29) - 1))


def read_until_eof(sock) -> list[bytes]:
    frames = []
    try:
        while True:
            frames.append(read_frame(sock))
    except (EOFError, ConnectionError):
        return frames


class Bomb:
    """Pickles to a stream that records the moment anything unpickles it."""

    detonated = []

    def __reduce__(self):
        return (Bomb.detonated.append, ("unpickled",))


@pytest.fixture(autouse=True)
def _defuse():
    Bomb.detonated.clear()
    yield
    assert Bomb.detonated == [], "a refused frame was unpickled"


class FakeServer:
    """A raw listening socket standing in for a peer process.

    Serves one connection at a time: runs ``script(conn)``, then reads
    whatever else the client sends until it hangs up.  ``served`` yields,
    per finished connection, every frame body the client wrote.
    """

    def __init__(self, script):
        self._script = script
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = Endpoint("127.0.0.1", self._sock.getsockname()[1])
        self.served: "queue.Queue[list[bytes]]" = queue.Queue()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            received = []
            with conn:
                conn.settimeout(5.0)

                def recv():
                    received.append(read_frame(conn))
                    return received[-1]

                try:
                    self._script(conn, recv)
                    received.extend(read_until_eof(conn))
                except (EOFError, OSError):
                    pass
            self.served.put(received)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        except OSError:
            pass
        self._sock.close()
        self._thread.join(5.0)
        assert not self._thread.is_alive()


@pytest.fixture
def fake_server():
    servers = []

    def factory(script):
        server = FakeServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def answers(reply: bytes):
    """Script: read the client's HELLO, answer ``reply``."""
    def script(conn, recv):
        recv()
        conn.sendall(reply)
    return script


def silent(conn, recv):
    recv()  # …and never answer


def hangs_up(conn, recv):
    conn.shutdown(socket.SHUT_RDWR)


def oversized_hello(conn, recv):
    recv()
    # Only the header: a client that tried to read the body would wait
    # out its whole handshake window instead of refusing at once.
    conn.sendall(struct.pack(">I", _HELLO_MAX_BYTES + 1))


def pickles_after_handshake(conn, recv):
    recv()
    conn.sendall(hello_frame())
    recv()  # the client's first request
    conn.sendall(frame(pickle.dumps(Bomb())))


@pytest.fixture
def client(nets):
    """A real transport with one healthy peer to prove it stays usable."""
    net = nets(hello_timeout_s=0.3, io_timeout_s=5.0, uds=False)
    healthy = nets(uds=False)
    net.register("hub", lambda m: "ok")
    healthy.register("healthy", lambda m: "pong")
    net.connect("healthy", healthy.endpoint_of("healthy"))
    return net


class TestClientRefusesABadServer:
    """A real ``TcpNetwork`` dials a fake server."""

    def refused(self, client, server, error):
        client.connect("fake", server.endpoint)
        channels = client.open_channels()
        with pytest.raises(error) as info:
            client.call("hub", "fake", MessageKind.PING, "never sent")
        # The dial was refused before any request frame was written, and
        # the socket it opened is closed (the fake saw EOF).
        received = server.served.get(timeout=5.0)
        assert len(received) <= 1  # the client's HELLO, nothing after it
        assert client.open_channels() == channels
        assert client.call("hub", "healthy", MessageKind.PING) == "pong"
        return str(info.value)

    def test_wrong_version(self, client, fake_server):
        server = fake_server(answers(hello_frame(version=PROTOCOL_VERSION + 1)))
        text = self.refused(client, server, ProtocolMismatchError)
        assert f"version {PROTOCOL_VERSION + 1}" in text
        assert f"version {PROTOCOL_VERSION}," in text
        assert text.count(wirecodec.WIRE_FORMAT) == 2

    def test_drifted_digest(self, client, fake_server):
        server = fake_server(answers(hello_frame(wire=DRIFTED_FORMAT)))
        text = self.refused(client, server, ProtocolMismatchError)
        assert DRIFTED_FORMAT in text and wirecodec.WIRE_FORMAT in text

    def test_mismatch_is_not_an_unreachable_node(self, client, fake_server):
        """Hedging and membership retry unreachable nodes; a build that
        cannot be talked to must not look like one."""
        assert not issubclass(ProtocolMismatchError, NodeUnreachableError)
        error = pickle.loads(pickle.dumps(ProtocolMismatchError(
            "n", 1, "bin1:a", 2, "bin1:b")))
        assert (error.node_id, error.peer_version, error.peer_format) == \
            ("n", 2, "bin1:b")

    def test_silent_peer_times_out(self, client, fake_server):
        started = time.monotonic()
        text = self.refused(client, fake_server(silent), NodeUnreachableError)
        assert "handshake failed" in text and "timed out" in text
        assert time.monotonic() - started < 4.0  # the hello window, not io

    def test_peer_that_hangs_up(self, client, fake_server):
        text = self.refused(client, fake_server(hangs_up),
                            NodeUnreachableError)
        assert "handshake failed" in text and "timed out" not in text

    def test_peer_that_sends_a_message_first(self, client, fake_server):
        message = Message(kind=MessageKind.PING, src="fake", dst="hub")
        for first in (envelope_frame(message), frame(pickle.dumps(message))):
            text = self.refused(client, fake_server(answers(first)),
                                NodeUnreachableError)
            assert "handshake failed: expected a HELLO frame" in text

    def test_oversized_hello_is_refused_before_its_body_is_read(
            self, client, fake_server):
        text = self.refused(client, fake_server(oversized_hello),
                            NodeUnreachableError)
        # Waiting for the (never sent) body would have read "timed out".
        assert "HELLO frame too large" in text

    def test_pickled_frame_after_a_good_handshake(self, client, fake_server):
        server = fake_server(pickles_after_handshake)
        client.connect("fake", server.endpoint)
        with pytest.raises(NodeUnreachableError, match="connection lost"):
            client.call("hub", "fake", MessageKind.PING)
        # HELLO + the one request; the violation closed the channel.
        assert len(server.served.get(timeout=5.0)) == 2
        assert client.open_channels() == 0
        assert client.call("hub", "healthy", MessageKind.PING) == "pong"

    def test_cast_to_a_mismatched_peer_is_loud(self, client, fake_server):
        server = fake_server(answers(hello_frame(wire=DRIFTED_FORMAT)))
        client.connect("fake", server.endpoint)
        with pytest.raises(ProtocolMismatchError):
            client.cast("hub", "fake", MessageKind.AGENT_HOP)
        assert [e.dropped for e in client.trace.events()] == [True]


@pytest.fixture
def served(nets):
    """A real server node plus the evidence that nothing reached it."""
    net = nets(uds=False)
    calls = []
    net.register("worker", lambda m: calls.append(m.payload) or "pong")

    def dial():
        sock = socket.create_connection(net.endpoint_of("worker").address())
        sock.settimeout(5.0)
        return sock

    yield net, dial, calls
    assert calls == []
    assert len(net.trace) == 0


REQUEST = envelope_frame(
    Message(kind=MessageKind.PING, src="fake", dst="worker", payload="x"))


class TestServerRefusesABadClient:
    """A fake client dials a real ``TcpNetwork`` node.

    Every case pipelines a well-formed request right behind the bad
    opening: it must never reach the handler (the ``served`` fixture
    checks handler calls and the server's trace on teardown).
    """

    def mismatched(self, dial, opening):
        with dial() as sock:
            sock.sendall(opening + REQUEST)
            frames = read_until_eof(sock)  # …and the server hangs up
        # Its own HELLO, so the dialler can name both sides; no reply.
        assert len(frames) == 1
        answer = pickle.loads(frames[0])
        assert isinstance(answer, Hello)
        assert answer.version == PROTOCOL_VERSION
        assert answer.settings[wirecodec.WIRE_SETTING] == wirecodec.WIRE_FORMAT

    def test_wrong_version(self, served):
        _net, dial, _calls = served
        self.mismatched(dial, hello_frame(version=PROTOCOL_VERSION + 1))

    def test_drifted_digest(self, served):
        _net, dial, _calls = served
        self.mismatched(dial, hello_frame(wire=DRIFTED_FORMAT))

    def test_hello_without_a_format(self, served):
        _net, dial, _calls = served
        self.mismatched(dial, frame(pickle.dumps(
            Hello(version=PROTOCOL_VERSION, node_id="fake"))))

    @pytest.mark.parametrize("opening", [
        pytest.param(REQUEST, id="envelope-first"),
        pytest.param(frame(pickle.dumps(
            Message(kind=MessageKind.PING, src="fake", dst="worker"))),
            id="pickled-message-first"),
        pytest.param(frame(pickle.dumps(Bomb()) + b"\0" * _HELLO_MAX_BYTES),
                     id="oversized-hello"),
        pytest.param(frame(pickle.dumps(Bomb()), ident=codec.ZLIB),
                     id="compressed-hello"),
    ])
    def test_first_frame_is_not_a_hello(self, served, opening):
        _net, dial, _calls = served
        with dial() as sock:
            sock.sendall(opening + REQUEST)
            assert read_until_eof(sock) == []  # closed, nothing answered

    @pytest.mark.parametrize("violation", [
        pytest.param(frame(pickle.dumps(Bomb())), id="pickled-frame"),
        pytest.param(hello_frame(), id="second-hello"),
    ])
    def test_violation_after_a_good_handshake(self, served, violation):
        _net, dial, _calls = served
        with dial() as sock:
            sock.sendall(hello_frame())
            assert isinstance(pickle.loads(read_frame(sock)), Hello)
            sock.sendall(violation + REQUEST)
            assert read_until_eof(sock) == []

    def test_nothing_is_allocated_before_the_hello(self, nets, monkeypatch):
        """A first header declaring 32 MiB is refused at the header.

        The accepted connection runs under the HELLO bound until its
        HELLO is admitted, so the reactor neither waits for the body nor
        makes room for it.
        """
        net = nets(uds=False)
        net.register("worker", lambda m: "pong")
        reasons = []
        adopt = net._reactor.add_connection

        def spy(sock, on_frame, on_closed, **kwargs):
            def closed(reason):
                reasons.append(reason)
                on_closed(reason)
            return adopt(sock, on_frame, closed, **kwargs)

        monkeypatch.setattr(net._reactor, "add_connection", spy)
        tracemalloc.start()
        try:
            with socket.create_connection(
                    net.endpoint_of("worker").address()) as sock:
                sock.settimeout(5.0)
                sock.sendall(struct.pack(">I", 32 << 20))  # header only
                assert read_until_eof(sock) == []  # hung up without a body
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # (The peer sees the FIN a moment before the close is reported.)
        assert _settles_to(lambda: len(reasons), 1) == 1
        assert isinstance(reasons[0], FrameError)
        assert peak < (4 << 20), f"{peak} bytes allocated for a stranger"
        # One byte over the bound is refused as well; the bound itself
        # is a HELLO's to use.
        with socket.create_connection(
                net.endpoint_of("worker").address()) as sock:
            sock.settimeout(5.0)
            sock.sendall(struct.pack(">I", _HELLO_MAX_BYTES + 1))
            assert read_until_eof(sock) == []
        assert _settles_to(lambda: len(reasons), 2) == 2
        assert isinstance(reasons[1], FrameError)
        other = nets(uds=False)
        other.register("hub", lambda m: "ok")
        other.connect("worker", net.endpoint_of("worker"))
        assert other.call("hub", "worker", MessageKind.PING) == "pong"
        # An admitted peer's frames run under the message bound.
        big = os.urandom(1 << 20)
        net.register("echo", lambda m: len(m.payload))
        other.connect("echo", net.endpoint_of("echo"))
        assert other.call("hub", "echo", MessageKind.PING, big) == len(big)

    def test_silent_client_holds_nothing_up(self, nets):
        net = nets(uds=False)
        net.register("worker", lambda m: "pong")
        other = nets(uds=False)
        other.register("hub", lambda m: "ok")
        other.connect("worker", net.endpoint_of("worker"))
        with socket.create_connection(net.endpoint_of("worker").address()):
            assert other.call("hub", "worker", MessageKind.PING) == "pong"

    def test_healthy_client_is_served_after_refusals(self, nets):
        net = nets(uds=False)
        net.register("worker", lambda m: "pong")
        for opening in (hello_frame(wire=DRIFTED_FORMAT), REQUEST):
            with socket.create_connection(
                    net.endpoint_of("worker").address()) as sock:
                sock.settimeout(5.0)
                sock.sendall(opening)
                read_until_eof(sock)
        other = nets(uds=False)
        other.register("hub", lambda m: "ok")
        other.connect("worker", net.endpoint_of("worker"))
        assert other.call("hub", "worker", MessageKind.PING) == "pong"


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settles_to(probe, expected, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while probe() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return probe()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count descriptors")
class TestRefusalsLeakNothing:
    REFUSALS = 50

    def test_refused_dials_close_their_sockets(self, client, fake_server):
        server = fake_server(answers(hello_frame(wire=DRIFTED_FORMAT)))
        client.connect("fake", server.endpoint)
        assert client.call("hub", "healthy", MessageKind.PING) == "pong"
        fds, channels = _open_fds(), client.open_channels()
        for _ in range(self.REFUSALS):
            with pytest.raises(ProtocolMismatchError):
                client.call("hub", "fake", MessageKind.PING)
            server.served.get(timeout=5.0)
        assert client.open_channels() == channels
        assert _settles_to(_open_fds, fds) == fds

    def test_refused_clients_close_their_connections(self, served):
        net, dial, _calls = served
        with dial() as sock:  # warm the loop; steady state from here on
            sock.sendall(hello_frame(wire=DRIFTED_FORMAT))
            read_until_eof(sock)
        fds = _open_fds()
        for i in range(self.REFUSALS):
            opening = hello_frame(wire=DRIFTED_FORMAT) if i % 2 else REQUEST
            with dial() as sock:
                sock.sendall(opening + REQUEST)
                read_until_eof(sock)
        assert _settles_to(_open_fds, fds) == fds
        assert net.open_channels() == 0
