"""The bulk path end to end: a large body is a view, and still the same bytes.

Each node gets a ``TcpNetwork`` of its own, so everything that passes
between two of them crossed a socket.  Two kinds of test live here:

* **structural** — the megabyte that reaches :meth:`Mover.receive_chunk`
  (and the quarter megabyte that reaches ``Invoker.handle``) is a
  read-only ``memoryview`` *of the very buffer the reactor handed to
  ``on_frame``*.  A regression to copying anywhere between the socket
  and the consumer fails here by name, not as a slower benchmark.
* **equivalence** — echoes around the direct-receive threshold over
  every tier (UDS, TCP, compressed TCP, the in-process bypass), streamed
  moves at the default and at one chunk, a hedged write's loser, and a
  servant that keeps a large argument past the call.
"""

import os
import zlib

import pytest

from repro.net.reactor import DIRECT_RECV_MIN
from repro.net.tcpnet import TcpNetwork
from repro.rmi.invoker import Invoker
from repro.runtime.namespace import Namespace

MIB = 1 << 20
SIZES = (DIRECT_RECV_MIN - 1, DIRECT_RECV_MIN, 256 * 1024, MIB)


class Vault:
    """Mobile servant: echoes, keeps what it was given, carries a payload."""

    def __init__(self, data=b""):
        self.data = data
        self.kept = None

    def echo(self, value):
        return value

    def keep(self, value):
        self.kept = value
        return len(value)

    def kept_crc(self):
        return zlib.crc32(self.kept)

    def crc(self):
        return zlib.crc32(self.data)


@pytest.fixture
def cluster():
    """``cluster(*nodes, ns={...}, **net_kwargs)`` — one transport per node,
    every pair connected; all of it shut down afterwards."""
    nets, spaces = [], []

    def build(*nodes, ns=None, **net_kwargs):
        by_node = {node: TcpNetwork(**net_kwargs) for node in nodes}
        nets.extend(by_node.values())
        built = {node: Namespace(node, by_node[node], **(ns or {}))
                 for node in nodes}
        spaces.extend(built.values())
        for node, net in by_node.items():
            for peer, peer_net in by_node.items():
                if peer != node:
                    net.connect(peer, peer_net.endpoint_of(peer))
        return built

    yield build
    for space in spaces:
        space.shutdown()
    for net in nets:
        net.shutdown()


def delivered_bodies(monkeypatch, namespace):
    """Every body the node's reactor hands to an ``on_frame`` from now on."""
    bodies = []
    reactor = namespace.transport._reactor
    adopt = reactor.add_connection

    def spy(sock, on_frame, on_closed, **kwargs):
        def seen(ident, body, wire):
            bodies.append(body)
            on_frame(ident, body, wire)
        return adopt(sock, seen, on_closed, **kwargs)

    monkeypatch.setattr(reactor, "add_connection", spy)
    return bodies


def is_view_of_a_delivered_body(data, bodies):
    return (type(data) is memoryview and data.readonly
            and any(data.obj is body for body in bodies))


class TestAViewNotACopy:
    def test_a_streamed_chunk_reaches_the_mover_as_a_view_of_its_frame(
            self, cluster, monkeypatch):
        ns = cluster("src", "dst", ns={"chunk_bytes": 2 * MIB})
        bodies = delivered_bodies(monkeypatch, ns["dst"])
        staged = []
        receive_chunk = ns["dst"].mover.receive_chunk
        monkeypatch.setattr(
            ns["dst"].mover, "receive_chunk",
            lambda chunk: staged.append(chunk.data) or receive_chunk(chunk))
        data = os.urandom(MIB)
        ns["src"].register("vault", Vault(data))
        assert ns["src"].move("vault", "dst") == "dst"
        (chunk_data,) = staged
        assert len(chunk_data) > MIB
        assert is_view_of_a_delivered_body(chunk_data, bodies)
        assert type(chunk_data.obj) is bytearray
        # ... and what was unpickled from the views is the object.
        assert ns["dst"].store.get("vault").data == data
        assert ns["dst"].mover.staging_count() == 0

    def test_a_large_argument_blob_reaches_the_invoker_as_a_view(
            self, cluster, monkeypatch):
        ns = cluster("caller", "server")
        bodies = delivered_bodies(monkeypatch, ns["server"])
        blobs = []
        handle = Invoker.handle
        monkeypatch.setattr(
            Invoker, "handle",
            lambda self, request:
                blobs.append(request.args_blob) or handle(self, request))
        ns["server"].register("vault", Vault())
        stub = ns["caller"].stub("vault", location="server")
        payload = os.urandom(256 * 1024)
        assert stub.keep(payload) == len(payload)
        (blob,) = blobs
        assert is_view_of_a_delivered_body(blob, bodies)
        # A small call's blob is plain bytes, as ever.
        assert stub.keep(b"tiny") == 4
        assert type(blobs[1]) is bytes

    def test_a_large_result_blob_reaches_the_caller_as_a_view(
            self, cluster, monkeypatch):
        ns = cluster("caller", "server")
        bodies = delivered_bodies(monkeypatch, ns["caller"])
        payload = os.urandom(256 * 1024)
        ns["server"].register("vault", Vault(payload))
        results = []
        from repro.rmi import client as client_module
        unmarshal = client_module.unmarshal
        monkeypatch.setattr(
            client_module, "unmarshal",
            lambda blob, factory=None:
                results.append(blob) or unmarshal(blob, factory))
        stub = ns["caller"].stub("vault", location="server")
        assert stub.echo(payload) == payload
        assert is_view_of_a_delivered_body(results[-1], bodies)


def tiers():
    return [
        pytest.param({}, False, id="uds"),
        pytest.param({"uds": False}, False, id="tcp"),
        pytest.param({"uds": False, "compress_threshold": 1024}, True,
                     id="tcp-compressed"),
    ]


class TestSameBytes:
    @pytest.mark.parametrize("net_kwargs, compressible", tiers())
    def test_echo_around_the_threshold_over_the_wire(
            self, cluster, net_kwargs, compressible):
        ns = cluster("caller", "server", **net_kwargs)
        ns["server"].register("vault", Vault())
        stub = ns["caller"].stub("vault", location="server")
        for n in SIZES:
            payload = (b"mage" * (n // 4 + 1))[:n] if compressible \
                else os.urandom(n)
            echoed = stub.echo(payload)
            assert type(echoed) is bytes and echoed == payload

    def test_echo_around_the_threshold_through_the_bypass(self, cluster):
        ns = cluster("solo")
        ns["solo"].register("vault", Vault())
        stub = ns["solo"].stub("vault", location="solo")
        hits = ns["solo"].client.local_hits
        for n in SIZES:
            payload = os.urandom(n)
            echoed = stub.echo(payload)
            assert type(echoed) is bytes and echoed == payload
        assert ns["solo"].client.local_hits == hits + len(SIZES)

    @pytest.mark.parametrize("chunk_bytes", [None, 2 * MIB],
                             ids=["default-chunks", "one-chunk"])
    def test_streamed_move_keeps_its_crc_and_is_hosted_once(
            self, cluster, chunk_bytes):
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        ns = cluster("a", "b", "c", ns=kwargs)
        data = os.urandom(MIB)
        crc = zlib.crc32(data)
        ns["a"].register("vault", Vault(data))
        for target in ("b", "c", "a", "b"):
            assert ns["a"].move("vault", target, origin_hint="a") == target
            hosts = [n for n, space in ns.items()
                     if space.store.contains("vault")]
            assert hosts == [target]
            assert ns["a"].stub("vault", location=target).crc() == crc
        kinds = [e.kind for e in ns["b"].transport.trace.events()]
        expected_chunks = 5 if chunk_bytes is None else 1  # 1 MiB + pickle head
        assert kinds.count("TRANSFER_CHUNK") == 2 * expected_chunks
        assert all(space.mover.staging_count() == 0 for space in ns.values())

    def test_a_hedged_write_leaves_nothing_staged_on_the_loser(self, cluster):
        ns = cluster("a", "b", "c")
        data = os.urandom(MIB)
        ns["a"].register("vault", Vault(data))
        winner = ns["a"].move("vault", "b", alternates=("c",))
        assert winner in ("b", "c")
        loser = "c" if winner == "b" else "b"
        assert ns[winner].store.get("vault").data == data
        assert not ns[loser].store.contains("vault")
        assert not ns["a"].store.contains("vault")
        assert ns[loser].mover.staging_count() == 0
        assert ns[winner].mover.staging_count() == 0

    def test_a_servant_may_keep_a_large_argument_past_the_call(self, cluster):
        ns = cluster("caller", "server")
        ns["server"].register("vault", Vault())
        stub = ns["caller"].stub("vault", location="server")
        kept = os.urandom(MIB)
        assert stub.keep(kept) == MIB
        # More large frames over the same connection, then read it back.
        for _ in range(4):
            assert len(stub.echo(os.urandom(MIB))) == MIB
        assert stub.kept_crc() == zlib.crc32(kept)
        held = ns["server"].store.get("vault").kept
        assert type(held) is bytes and held == kept
