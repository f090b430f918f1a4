"""Objects whose pickled state is not a plain ``__dict__`` still move.

On CPython 3.11 every object has ``__getstate__``, and it follows
pickle's rules: ``None`` for an object with no instance attributes,
``(dict or None, {slot: value})`` for a class with ``__slots__``.  The
mover packs that state and unpacks it by the same rules, in a single
frame and in a stream, on the simulated network and over TCP.
"""

import pytest

from repro.cluster import Cluster
from repro.net.tcpnet import TcpNetwork

KIB = 1024


class Stateless:
    """No instance attributes at all."""

    def ping(self):
        return "pong"


class Slotted:
    """Slots only: no ``__dict__``."""

    __slots__ = ("count", "payload")

    def __init__(self, count=0, payload=b""):
        self.count = count
        self.payload = payload

    def value(self):
        return self.count, len(self.payload)


class HalfSlotted(Slotted):
    """Slots inherited, plus a ``__dict__`` of its own."""

    def __init__(self, count=0, payload=b""):
        super().__init__(count, payload)
        self.note = "kept"

    def value(self):
        return self.count, len(self.payload), self.note


SHAPES = {
    "stateless": (Stateless, lambda obj: obj.ping(), "pong"),
    "slotted": (lambda: Slotted(7, b"s" * 100),
                lambda obj: obj.value(), (7, 100)),
    "slotted_streamed": (lambda: Slotted(8, b"s" * 64 * KIB),
                         lambda obj: obj.value(), (8, 64 * KIB)),
    "half_slotted": (lambda: HalfSlotted(9, b"h" * 64 * KIB),
                     lambda obj: obj.value(), (9, 64 * KIB, "kept")),
}


@pytest.fixture(params=["sim", "tcp"])
def cluster(request):
    transport = TcpNetwork() if request.param == "tcp" else "sim"
    cluster = Cluster(["alpha", "beta"], transport=transport,
                      stream_threshold=16 * KIB, chunk_bytes=16 * KIB)
    yield cluster
    cluster.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_the_object_moves_and_keeps_its_state(cluster, shape):
    make, read, expected = SHAPES[shape]
    cluster["alpha"].register("x", make())
    assert cluster["alpha"].namespace.move("x", "beta") == "beta"
    assert not cluster["alpha"].namespace.store.contains("x")
    assert read(cluster["beta"].namespace.store.get("x")) == expected
    # And back again, now as a clone of the shipped class.
    assert cluster["beta"].namespace.move("x", "alpha") == "alpha"
    assert read(cluster["alpha"].namespace.store.get("x")) == expected
