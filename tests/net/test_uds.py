"""Same-host Unix-domain-socket transport (tier 2 of the locality ladder).

Two *separate* :class:`TcpNetwork` instances stand in for two processes
on one machine: the only things they share are the endpoints exchanged
through :meth:`connect` and whatever the HELLO handshake carries.  The
suite covers the facet advertisement, the UDS dial itself (asserted on
the live channel's socket family), every degradation path back to plain
TCP (peer without UDS, dialer without UDS, foreign-host facet),
HELLO-driven facet learning for 2-tuple roster entries, and the
peer-eviction hygiene of the auto-batcher (a re-joined peer must start
clean).
"""

import socket
import threading

import pytest

from repro.errors import NodeUnreachableError, TransportError
from repro.net.endpoint import Endpoint
from repro.net.message import MessageKind
from repro.net.tcpnet import _UDS_SUPPORTED, TcpNetwork

pytestmark = pytest.mark.skipif(
    not _UDS_SUPPORTED, reason="platform lacks AF_UNIX sockets"
)


@pytest.fixture
def nets():
    """Factory for independent transports, all shut down afterwards."""
    created = []

    def make(**kwargs):
        network = TcpNetwork(**kwargs)
        created.append(network)
        return network

    yield make
    for network in created:
        network.shutdown()


def link(a, a_node, b, b_node):
    """Cross-connect two transports the way membership gossip would."""
    a.connect(b_node, b.endpoint_of(b_node))
    b.connect(a_node, a.endpoint_of(a_node))


def channel_family(net, src, dst):
    """Address family of the live client channel ``src -> dst``."""
    channel = net._channels[(src, dst)]
    return channel._conn._sock.family


class TestFacetAdvertisement:
    def test_endpoint_of_carries_the_uds_facet(self, nets):
        net = nets()
        net.register("a", lambda m: m.payload)
        endpoint = net.endpoint_of("a")
        assert endpoint.uds
        assert endpoint.uds.startswith("mage-")
        # The facet rides the 3-tuple roster spelling…
        assert endpoint.as_tuple() == (
            endpoint.host, endpoint.port, endpoint.uds
        )
        # …but never the endpoint's identity.
        assert endpoint == Endpoint(endpoint.host, endpoint.port)

    def test_uds_off_advertises_a_plain_endpoint(self, nets):
        net = nets(uds=False)
        net.register("a", lambda m: m.payload)
        endpoint = net.endpoint_of("a")
        assert endpoint.uds == ""
        assert endpoint.as_tuple() == (endpoint.host, endpoint.port)


class TestSameHostDial:
    def test_same_host_peers_speak_over_the_unix_socket(self, nets):
        a, b = nets(), nets()
        a.register("a", lambda m: m.payload)
        b.register("b", lambda m: m.payload * 2)
        link(a, "a", b, "b")
        assert a.call("a", "b", MessageKind.PING, 21) == 42
        assert channel_family(a, "a", "b") == socket.AF_UNIX

    def test_peer_without_uds_degrades_to_tcp(self, nets):
        a, b = nets(), nets(uds=False)
        a.register("a", lambda m: m.payload)
        b.register("b", lambda m: m.payload + 1)
        link(a, "a", b, "b")
        assert a.call("a", "b", MessageKind.PING, 1) == 2
        assert channel_family(a, "a", "b") == socket.AF_INET
        # And the non-UDS peer keeps dialling back over TCP too.
        assert b.call("b", "a", MessageKind.PING, 1) == 1
        assert channel_family(b, "b", "a") == socket.AF_INET

    def test_dialer_with_uds_disabled_ignores_the_facet(self, nets):
        a, b = nets(uds=False), nets()
        a.register("a", lambda m: m.payload)
        b.register("b", lambda m: m.payload)
        link(a, "a", b, "b")
        assert a.call("a", "b", MessageKind.PING, "x") == "x"
        assert channel_family(a, "a", "b") == socket.AF_INET

    def test_foreign_host_facet_is_never_dialled(self, nets):
        """A roster entry for another machine may carry that machine's
        UDS name; the local dialer must strip it, not dial it."""
        net = nets()
        net.connect("far", Endpoint("10.255.0.9", 12345, "mage-12345-far"))
        assert net._dial_address("far").uds == ""

    def test_facet_survives_a_facetless_roster_merge(self, nets):
        """connect() keeps a learned facet when a late 2-tuple roster
        entry (same address, no facet) would otherwise shed it."""
        net = nets()
        net.connect("peer", Endpoint("127.0.0.1", 23456, "mage-23456-peer"))
        net.connect("peer", ("127.0.0.1", 23456))
        assert net.endpoint_of("peer").uds == "mage-23456-peer"


class TestFacetLearning:
    def test_hello_teaches_the_facet_to_a_two_tuple_book_entry(self, nets):
        """A peer connected via a legacy (host, port) roster entry: the
        first exchange runs over TCP, the HELLO advertises the Unix
        socket, and the *next* dial upgrades."""
        a, b = nets(), nets()
        a.register("a", lambda m: m.payload)
        b.register("b", lambda m: m.payload)
        b_endpoint = b.endpoint_of("b")
        a.connect("b", b_endpoint.address())  # 2-tuple: facet unknown
        b.connect("a", a.endpoint_of("a").address())
        assert a.call("a", "b", MessageKind.PING, 7) == 7
        assert channel_family(a, "a", "b") == socket.AF_INET
        # The HELLO answer advertised the facet; the book learned it.
        assert a.endpoint_of("b").uds == b_endpoint.uds
        # A redial (e.g. after a connection drop) takes the fast path.
        a._drop_channels("b")
        assert a.call("a", "b", MessageKind.PING, 8) == 8
        assert channel_family(a, "a", "b") == socket.AF_UNIX


class _Park:
    """Server handler whose ``hang`` payload parks until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, message):
        if message.payload == "hang":
            self.started.set()
            self.release.wait(5.0)
            return "hung"
        return message.payload


class TestForgetPeerHygiene:
    def test_forget_peer_fails_queued_autobatch_frames(self, nets):
        """Eviction must tear down the per-peer auto-batcher *without*
        rescuing its queue: frames queued behind an in-flight call fail
        fast, and a re-joined peer starts from a clean channel."""
        net = nets()
        park = _Park()
        net.register("a", lambda m: None)
        net.register("b", park)
        net.call("a", "b", MessageKind.PING, 0)  # warm the channel
        hung = net.call_async("a", "b", MessageKind.PING, "hang")
        assert park.started.wait(5.0)
        # The reply clock is busy: these coalesce in the batcher queue.
        queued = [
            net.call_async("a", "b", MessageKind.PING, i) for i in range(3)
        ]
        net.forget_peer("b")
        for future in queued:
            with pytest.raises((NodeUnreachableError, TransportError)):
                future.result(timeout_s=5.0)
        with pytest.raises(TransportError):
            hung.result(timeout_s=5.0)
        assert net.open_channels() == 0
        park.release.set()
        # "b" re-registers locally, so the peer can be dialled afresh —
        # nothing stale (queued frames, inline state) leaks into the new
        # channel's first exchange.
        assert net.call("a", "b", MessageKind.PING, 99) == 99
        assert net.open_channels() == 1
