"""Frame compression for the TCP transport: one rule, decided by the link.

A frame is zlib-compressed when its serialized size is at least
:data:`COMPRESS_MIN_BYTES` and its connection is not a same-host Unix
socket (compression saves network bandwidth, which such a socket does not
consume).  Everything else — all small control traffic — ships raw, and
so does a frame that compression fails to shrink.  Nothing is
negotiated: every admitted peer runs this build's protocol version and
wire format, and zlib is stdlib, so every peer decodes what it is sent.

The codec id travels in the top three bits of the frame's header word:
raw frames use id 0, so a raw frame's header is its bare body length,
and zlib frames id 1.  Any other id is refused as a
:class:`~repro.errors.MarshalError`, which closes the connection.
"""

from __future__ import annotations

import zlib

from repro.errors import MarshalError

#: Codec ids as carried in the frame header.
RAW = 0
ZLIB = 1

#: Frames below this many serialized bytes are never compressed: the CPU
#: cost outweighs the byte savings.  Read per frame, so a bench can raise
#: it past the frame bound to measure a raw arm.
COMPRESS_MIN_BYTES = 16 * 1024

#: zlib level 1: on the large, structured blobs migrations ship it costs a
#: fraction of level 6 for most of the ratio — this is a latency codec,
#: not an archival one.
_ZLIB_LEVEL = 1


def choose(nbytes: int, compress: bool) -> int:
    """The codec id for a frame of ``nbytes`` on a link that ``compress``es
    (every link but a same-host Unix socket)."""
    return ZLIB if compress and nbytes >= COMPRESS_MIN_BYTES else RAW


def encode(ident: int, blob: bytes) -> bytes:
    """Compress ``blob`` with the codec ``ident`` (``RAW`` passes through)."""
    if ident == RAW:
        return blob
    if ident == ZLIB:
        return zlib.compress(blob, _ZLIB_LEVEL)
    raise MarshalError(f"unknown codec id {ident}")


def decode(ident: int, blob: "bytes | bytearray",
           max_size: int) -> "bytes | bytearray":
    """Decompress one received frame body, bounding the inflated size.

    A raw body is returned as the very object that came in.  ``max_size``
    guards against decompression bombs: a frame that inflates past the
    transport's frame bound is refused like an oversized raw frame.
    """
    if ident == RAW:
        return blob
    if ident != ZLIB:
        raise MarshalError(f"unknown codec id {ident} in frame header")
    decompressor = zlib.decompressobj()
    out = decompressor.decompress(blob, max_size)
    if decompressor.unconsumed_tail:
        raise MarshalError(f"compressed frame inflates past {max_size} bytes")
    return out
