"""Deterministic seeded bit source with exact accounting of every random bit.

Everything the samplers consume is derived from fair bits so the bit budget of
a run can be reported exactly. Discrete draws (the chain-driving bits) are
tallied in ``bits_consumed``; 53-bit continuous uniforms are tallied separately
in ``bits_continuous`` since they are not part of the discrete budget.

Streams are splittable: ``fork(label)`` derives an independent-behaving child
keyed by (seed, label path), which is how parallel runs stay reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from .errors import LinextError

_WORDBITS = 256


class StepDraw(NamedTuple):
    """One chain step's randomness: position i in 1..n-1 and coins c1, c2."""

    i: int
    c1: int
    c2: int


class BitStream:
    """Buffered fair-bit generator keyed by (seed, label), with bit counters.

    The same (seed, label) always yields the same bit sequence. A stream is
    single-threaded by design; use fork() with distinct labels for parallelism.
    """

    __slots__ = ("seed", "label", "bits_consumed", "bits_continuous",
                 "_rng", "_word", "_avail", "_children")

    def __init__(self, seed: int, label: str = "root"):
        self.seed = seed
        self.label = label
        self.bits_consumed = 0
        self.bits_continuous = 0
        key = hashlib.sha256(f"{seed}|{label}".encode()).digest()
        self._rng = random.Random(int.from_bytes(key, "big"))
        self._word = 0
        self._avail = 0
        self._children: set[str] = set()

    def fork(self, label: str) -> "BitStream":
        """Derive a child stream; deterministic in (seed, parent label, label)."""
        if label in self._children:
            raise LinextError(f"duplicate fork label {label!r} on stream {self.label!r}")
        self._children.add(label)
        return BitStream(self.seed, f"{self.label}/{label}")

    def next_bit(self) -> int:
        """One unbiased bit; increments bits_consumed by exactly 1."""
        if self._avail == 0:
            self._word = self._rng.getrandbits(_WORDBITS)
            self._avail = _WORDBITS
        b = self._word & 1
        self._word >>= 1
        self._avail -= 1
        self.bits_consumed += 1
        return b

    def uniform_int(self, m: int) -> int:
        """Uniform integer in {1..m} by entropy-recycling rejection.

        Consumes no bits for m = 1, exactly log2(m) bits when m is a power of
        two, and at most ceil(log2(m)) + 2 expected bits otherwise.
        """
        if m < 1:
            raise LinextError(f"uniform_int needs m >= 1, got {m}")
        if m == 1:
            return 1
        v = 1
        c = 0
        next_bit = self.next_bit
        while True:
            v += v
            c += c + next_bit()
            if v >= m:
                if c < m:
                    return c + 1
                v -= m
                c -= m

    def bernoulli(self, p: float) -> int:
        """1 with probability p, by lazily comparing fair bits against p's
        binary expansion. p in {0, 1} is free; p = 1/2 costs exactly one bit;
        anything else costs two bits in expectation."""
        if not 0.0 <= p <= 1.0:
            raise LinextError(f"bernoulli needs p in [0, 1], got {p}")
        if p == 0.0:
            return 0
        if p == 1.0:
            return 1
        x = p
        next_bit = self.next_bit
        while True:
            if x >= 0.5:
                if next_bit() == 0:
                    return 1
                x = x + x - 1.0
                if x == 0.0:  # dyadic p: matched prefix means the draw is >= p
                    return 0
            else:
                if next_bit() == 1:
                    return 0
                x = x + x

    def draw_step(self, n: int, pen: float) -> StepDraw:
        """The per-step randomness bundle, drawn eagerly in a fixed order:
        position i uniform on {1..n-1}, then c1 ~ Bernoulli(1/2), then
        c2 ~ Bernoulli(pen). c2 is drawn even when the step will not look at
        it, so transcripts have a fixed shape."""
        i = self.uniform_int(n - 1)
        c1 = self.bernoulli(0.5)
        c2 = self.bernoulli(pen)
        return StepDraw(i, c1, c2)

    def uniform_real(self) -> float:
        """Uniform on the left-open interval (0, 1] with 53-bit resolution.

        Tallied in bits_continuous, not in the discrete budget.
        """
        k = self._take_bits(53)
        self.bits_continuous += 53
        return (k + 1) * 2.0 ** -53

    def _take_bits(self, k: int) -> int:
        out = 0
        got = 0
        while got < k:
            if self._avail == 0:
                self._word = self._rng.getrandbits(_WORDBITS)
                self._avail = _WORDBITS
            take = k - got
            if take > self._avail:
                take = self._avail
            out = (out << take) | (self._word & ((1 << take) - 1))
            self._word >>= take
            self._avail -= take
            got += take
        return out

    def __repr__(self) -> str:
        return (f"BitStream(seed={self.seed}, label={self.label!r}, "
                f"bits={self.bits_consumed}, continuous={self.bits_continuous})")
