"""Servant classes the workloads host and move.

They live in a real module because mobile classes travel as source text:
a class defined under ``exec`` or ``__main__`` fails to move with
``ClassTransferError``.
"""

from __future__ import annotations

import zlib


class Adder:
    """Stateless invoke target: a tiny call and an echo of any payload."""

    def add(self, a, b=0):
        return a + b

    def echo(self, value):
        return value


class Counter:
    """Small mobile object; ``n`` must equal the bumps that succeeded."""

    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
        return self.n

    def value(self):
        return self.n


class Blob:
    """Large mobile object: incompressible state checked by CRC32."""

    def __init__(self, data):
        self.data = data

    def crc(self):
        return zlib.crc32(self.data)

    def size(self):
        return len(self.data)
