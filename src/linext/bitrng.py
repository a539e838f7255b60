"""Deterministic seeded bit source with exact accounting of every random bit.

Everything the samplers consume is derived from fair bits so the bit budget of
a run can be reported exactly. Discrete draws (the chain-driving bits) are
tallied in ``bits_consumed``; 53-bit continuous uniforms are tallied separately
in ``bits_continuous`` since they are not part of the discrete budget. All of
them come from ``uniform_reals``, which reads a batch (a lift's n uniforms) in
one pass with the bits and state of one value at a time.

A native call can draw from the stream's own generator (``lend``): it is
handed the MT19937 state and the buffered bits once, makes the same 256-bit
words itself, and hands back the state it leaves, so counters and the
generator state are those of the Python draws.

Streams are splittable: ``fork(label)`` derives an independent-behaving child
keyed by (seed, label path), which is how parallel runs stay reproducible.
"""

from __future__ import annotations

import hashlib
import random
import struct
from array import array
from typing import NamedTuple

from .errors import LinextError

_WORDBITS = 256
_REVBITS = 12  # widest chunk uniform_int reverses by table lookup
_MASK53 = (1 << 53) - 1
_STATE = struct.Struct("625I")  # an MT19937 state as getstate gives it: 624 words, then the index


def _reversal_table(bits: int) -> tuple[int, ...]:
    """Entry x is x with its low `bits` bits in reverse order."""
    table = [0]
    for _ in range(bits):
        table = [2 * r for r in table] + [2 * r + 1 for r in table]
    return tuple(table)


_REVERSED = _reversal_table(_REVBITS)


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

        The first ceil(log2(m)) bits, which every draw consumes before its
        first test, are taken from the buffered word as one chunk and
        bit-reversed, so the first bit drawn stays the most significant. The
        bit sequence and the count are those of drawing the bits one at a
        time, which is what happens when the word holds fewer bits or the
        chunk is wider than the reversal table.
        """
        if m < 1:
            raise LinextError(f"uniform_int needs m >= 1, got {m}")
        if m == 1:
            return 1
        k = (m - 1).bit_length()
        if k <= self._avail and k <= _REVBITS:
            w = self._word
            c = _REVERSED[w & ((1 << k) - 1)] >> (_REVBITS - k)
            self._word = w >> k
            self._avail -= k
            self.bits_consumed += k
            if c < m:
                return c + 1
            v = (1 << k) - m
            c -= m
        else:
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

    def lend(self, run) -> None:
        """Lend the generator and the buffered bits to a native call that
        draws from them as this stream would, and take back what it leaves.

        run(state, word, avail) gets the generator's MT19937 state as an
        array of 625 uint32, its 624 words then the index, as getstate gives
        them; the buffered bits as 32 little-endian bytes, least significant
        first; and their count as a one-entry int64 array. It reads the bits
        in order, each further 256-bit word what getrandbits(256) gives, and
        may make words ahead, but must leave all three as if it had taken
        each word only when it read from it and return the bits it read,
        counted here: the stream is as next_bit's reads would leave it.
        """
        version, state, gauss = self._rng.getstate()
        words = array("I", _STATE.pack(*state))
        word = array("B", self._word.to_bytes(32, "little"))
        avail = array("q", [self._avail])
        self.bits_consumed += run(words, word, avail)
        self._rng.setstate((version, _STATE.unpack(words), gauss))
        self._word = int.from_bytes(word, "little")
        self._avail = avail[0]

    def uniform_real(self) -> float:
        """Uniform on the left-open interval (0, 1] with 53-bit resolution.

        Tallied in bits_continuous, not in the discrete budget.
        """
        return self.uniform_reals(1)[0]

    def uniform_reals(self, k: int) -> list[float]:
        """k uniforms on (0, 1], read in one batch.

        Value j is (x + 1) 2^-53 for x the stream's next 53 bits, the first
        bit least significant, except where they straddle two buffered words:
        then the earlier word's piece is x's high part. The words the batch
        needs past the buffered bits come from one getrandbits call, which
        yields what that many single-word calls would, so values, counters
        and generator state are those of k calls of one value each. Tallied
        in bits_continuous.
        """
        if k < 0:
            raise LinextError(f"uniform_reals needs k >= 0, got {k}")
        have = self._avail
        buf = self._word
        words = -(-(53 * k - have) // _WORDBITS)
        if words > 0:
            buf |= self._rng.getrandbits(_WORDBITS * words) << have
            have += _WORDBITS * words
        edge = self._avail  # bits before the next word starts
        out = []
        for _ in range(k):
            x = buf & _MASK53
            buf >>= 53
            if edge < 53:
                x = (x & ((1 << edge) - 1)) << (53 - edge) | x >> edge
                edge += _WORDBITS
            edge -= 53
            out.append((x + 1) * 2.0 ** -53)
        self._word = buf
        self._avail = have - 53 * k
        self.bits_continuous += 53 * k
        return out

    def __repr__(self) -> str:
        return (f"BitStream(seed={self.seed}, label={self.label!r}, "
                f"bits={self.bits_consumed}, continuous={self.bits_continuous})")
