"""Cross-host endpoints and the wire-level HELLO handshake.

The vocabulary that lets the stack span real machines:

* :class:`Endpoint` — a ``(host, port)`` address a node can be reached
  at.  Transports keep an **address book** (``node_id -> Endpoint``,
  see :meth:`repro.net.transport.Transport.connect`) for peers that were
  never locally registered; the cluster layer's membership service
  propagates the book via JOIN/ANNOUNCE.
* :class:`Hello` — the first frame each side of a new TCP connection
  sends: protocol version, node identity, codec advertisement, and a
  settings map that carries the wire-format digest.  The handshake is
  mandatory and strict: both sides must state the same
  :data:`PROTOCOL_VERSION` and the same wire format, or the dial is
  refused with :class:`~repro.errors.ProtocolMismatchError` before any
  request is written (see :mod:`repro.net.tcpnet` for the full
  contract).  Codec negotiation happens **on the wire**: a sender
  compresses toward a peer only per what that peer's HELLO advertised,
  so two processes that share nothing but a socket still negotiate.

HELLO frames are wire-level: they are not :class:`~repro.net.message.
Message` envelopes, never reach a node's dispatcher, and are invisible
to message traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

#: Version of the frame-level wire protocol spoken after the HELLO
#: exchange.  A peer stating any other version is refused.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Endpoint:
    """A network address one node listens on: ``(host, port)``.

    ``host`` is whatever the peer should dial — an IP, a hostname, or
    ``127.0.0.1`` for same-machine deployments.  Hashable and comparable,
    so address books can detect a re-joining peer's *changed* endpoint
    (the fresh entry wins; stale connections are severed).

    ``uds`` is an optional same-host facet: the *abstract* Unix-domain
    socket name (without the leading NUL byte) the node additionally
    listens on.  A peer that observes the endpoint's ``host`` matching
    its own advertised host may dial the UDS instead of TCP; everyone
    else ignores the facet.  It is advisory routing data, not identity:
    two endpoints differing only in ``uds`` address the same listener,
    so the facet is excluded from equality and hashing (address books
    must not treat a facet upgrade as a changed — severable — peer).
    """

    host: str
    port: int
    uds: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("endpoint host cannot be empty")
        if not (0 < int(self.port) < 65536):
            raise ConfigurationError(f"endpoint port out of range: {self.port}")

    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` pair ``socket.create_connection`` wants."""
        return (self.host, self.port)

    def as_tuple(self) -> "tuple[str, int] | tuple[str, int, str]":
        """The roster/JOIN wire spelling: 2-tuple, or 3-tuple with ``uds``.

        Kept a plain tuple (not the dataclass) so rosters stay readable
        by builds that predate the facet; ``Endpoint(*t)`` accepts both.
        """
        if self.uds:
            return (self.host, self.port, self.uds)
        return (self.host, self.port)

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` (the CLI/seed-list spelling)."""
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"expected 'host:port', got {text!r}"
            )
        try:
            return cls(host=host, port=int(port))
        except ValueError:
            raise ConfigurationError(
                f"expected a numeric port in {text!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class Hello:
    """The handshake frame exchanged once per new TCP connection.

    The client sends its HELLO immediately after connecting and waits
    (``hello_timeout_s``) for the server's; both directions carry:

    ``version``
        :data:`PROTOCOL_VERSION` of the sender.  A receiver seeing any
        other version refuses the connection.
    ``node_id``
        Who is speaking: the client's source node, or the node the
        contacted listener serves.  Lets a server attribute a
        connection to a peer it never registered locally.
    ``codecs``
        The frame codecs the *sender* can decode — i.e. what the other
        side may compress toward it
        (:meth:`~repro.net.tcpnet.TcpNetwork.advertise_codecs` overrides
        a local node's).
    ``settings``
        Sender configuration.  ``"wire"`` is required: the sender's
        :data:`repro.net.wirecodec.WIRE_FORMAT`, which must equal the
        receiver's.  ``"uds"`` (a server's same-host Unix-socket facet)
        and ``"max_frame"`` are informational; receivers ignore keys
        they do not know.
    """

    version: int
    node_id: str
    codecs: tuple[str, ...] = ()
    settings: dict[str, Any] = field(default_factory=dict)
