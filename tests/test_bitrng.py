"""Seeded bit source: determinism, exact accounting, and distribution."""

import math
import random
from array import array
from collections import Counter

import pytest
from scipy.stats import chisquare

from linext import BitStream, LinextError, StepDraw


# -- next_bit ------------------------------------------------------------------

def test_next_bit_reproducible():
    a = BitStream(12345)
    b = BitStream(12345)
    assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]


def test_next_bit_counts():
    s = BitStream(1)
    for _ in range(1000):
        s.next_bit()
    assert s.bits_consumed == 1000


def test_next_bit_mean_band():
    s = BitStream(2)
    n = 100_000
    mean = sum(s.next_bit() for _ in range(n)) / n
    assert 0.49 <= mean <= 0.51


# -- uniform_int ---------------------------------------------------------------

def test_uniform_int_m1_free():
    s = BitStream(3)
    assert s.uniform_int(1) == 1
    assert s.bits_consumed == 0


def test_uniform_int_power_of_two_exact_cost():
    s = BitStream(4)
    for _ in range(100):
        before = s.bits_consumed
        v = s.uniform_int(4)
        assert 1 <= v <= 4
        assert s.bits_consumed - before == 2


def test_uniform_int_m3_distribution_and_cost():
    s = BitStream(5)
    n = 100_000
    counts = Counter()
    for _ in range(n):
        counts[s.uniform_int(3)] += 1
    mean_bits = s.bits_consumed / n
    assert mean_bits <= 3.7
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for v in (1, 2, 3):
        assert abs(counts[v] - n / 3) <= 3 * sigma


def test_uniform_int_expected_cost_within_bound():
    # entropy recycling keeps every m within ceil(log2 m) + 2 expected bits
    for m in (3, 5, 6, 9, 17, 100):
        s = BitStream(6, label=f"m{m}")
        n = 20_000
        for _ in range(n):
            s.uniform_int(m)
        assert s.bits_consumed / n <= math.ceil(math.log2(m)) + 2


def test_uniform_int_chi_square():
    s = BitStream(7)
    n = 100_000
    counts = Counter(s.uniform_int(6) for _ in range(n))
    _, p = chisquare([counts[v] for v in range(1, 7)])
    assert p >= 0.01


def _uniform_real_bitwise(s):
    """Reference: one uniform's 53 bits taken word by word, a piece from an
    earlier word in the high bits."""
    out = got = 0
    while got < 53:
        if s._avail == 0:
            s._word = s._rng.getrandbits(256)
            s._avail = 256
        take = min(53 - got, s._avail)
        out = (out << take) | (s._word & ((1 << take) - 1))
        s._word >>= take
        s._avail -= take
        got += take
    s.bits_continuous += 53
    return (out + 1) * 2.0 ** -53


def _stream_state(s):
    return (s.bits_continuous, s.bits_consumed, s._word, s._avail, s._rng.getstate())


def test_uniform_reals_match_one_value_at_a_time():
    # after 44 bits, 4 values end exactly on the word boundary; after 256 the
    # buffer is empty; k = 40 reads over eight fresh words
    for offset in range(301):
        for k in (0, 1, 4, 5, 12, 40):
            a, b, c = (BitStream(21, f"reals/{offset}") for _ in range(3))
            for s in (a, b, c):
                for _ in range(offset):
                    s.next_bit()
            values = a.uniform_reals(k)
            assert values == [b.uniform_real() for _ in range(k)]
            assert values == [_uniform_real_bitwise(c) for _ in range(k)]
            assert _stream_state(a) == _stream_state(b) == _stream_state(c)
            assert a.bits_continuous == 53 * k and a.bits_consumed == offset
            if (offset, k) == (44, 4):
                assert a._avail == 0 and a._word == 0
            if (offset, k) == (44, 5):
                assert a._avail == 203
    s = BitStream(22)
    s.next_bit()
    state = _stream_state(s)
    assert s.uniform_reals(0) == [] and _stream_state(s) == state
    with pytest.raises(LinextError):
        s.uniform_reals(-1)


def _lent_reader(k, seen):
    """A stand-in for a native call lent the stream: it reads k bits as lend
    asks, the buffered bits first and then each 256-bit word from a generator
    set to the lent state, fetched only when read, records them in seen and
    hands back the state, the bits left and the count."""
    def run(state, word, avail):
        rng = random.Random()
        rng.setstate((3, tuple(state), None))
        bits, have, got = int.from_bytes(word, "little"), avail[0], []
        while len(got) < k:
            if have == 0:
                bits, have = rng.getrandbits(256), 256
            got.append(bits & 1)
            bits >>= 1
            have -= 1
        seen.extend(got)
        state[:] = array("I", rng.getstate()[1])
        word[:] = array("B", bits.to_bytes(32, "little"))
        avail[0] = have
        return k
    return run


def test_lend_leaves_the_stream_as_the_same_reads_do():
    # A call lent the stream, reading k bits over 0..3 fresh words from a
    # stream advanced 0..300 bits, reads next_bit's bits and leaves the
    # counters, the buffered bits and the generator state next_bit leaves,
    # and the stream goes on from there.
    for offset in (0, 1, 100, 255, 256, 300):
        for k in (0, 1, 155, 156, 157, 700):
            a, b = BitStream(31, f"lend/{offset}"), BitStream(31, f"lend/{offset}")
            for s in (a, b):
                for _ in range(offset):
                    s.next_bit()
            seen = []
            a.lend(_lent_reader(k, seen))
            assert seen == [b.next_bit() for _ in range(k)]
            assert _stream_state(a) == _stream_state(b)
            assert a.uniform_int(1000) == b.uniform_int(1000)


def _uniform_int_bitwise(s, m):
    """Reference: the entropy-recycling rejection draw, one next_bit at a time."""
    if m == 1:
        return 1
    v, c = 1, 0
    while True:
        v += v
        c += c + s.next_bit()
        if v >= m:
            if c < m:
                return c + 1
            v -= m
            c -= m


def test_uniform_int_chunks_match_bitwise_draws():
    # every m in 1..4100 once, then powers of two, 2^k +- 1 and m past the
    # 12-bit reversal table again; the interleaved single bits shift the
    # chunks across word boundaries
    edges = sorted({*range(4090, 4101), *(2 ** k + d for k in range(13) for d in (-1, 0, 1))} - {0})
    for offset in range(5):
        a = BitStream(20, label=f"chunk/{offset}")
        b = BitStream(20, label=f"chunk/{offset}")
        for _ in range(offset):
            assert a.next_bit() == b.next_bit()
        for rep in range(40):
            for m in edges if rep else range(1, 4101):
                assert a.uniform_int(m) == _uniform_int_bitwise(b, m)
                assert a.bits_consumed == b.bits_consumed
                if (rep + m) % 3 == 0:
                    assert a.next_bit() == b.next_bit()


def test_uniform_int_rejects_bad_m():
    with pytest.raises(LinextError):
        BitStream(8).uniform_int(0)


# -- bernoulli -------------------------------------------------------------------

def test_bernoulli_degenerate_free():
    s = BitStream(9)
    assert s.bernoulli(1.0) == 1
    assert s.bernoulli(0.0) == 0
    assert s.bits_consumed == 0


def test_bernoulli_half_costs_one_bit():
    s = BitStream(10)
    for _ in range(200):
        before = s.bits_consumed
        s.bernoulli(0.5)
        assert s.bits_consumed - before == 1


def test_bernoulli_p03():
    s = BitStream(11)
    n = 100_000
    total = sum(s.bernoulli(0.3) for _ in range(n))
    sigma = math.sqrt(n * 0.3 * 0.7)
    assert abs(total - 0.3 * n) <= 3 * sigma
    assert s.bits_consumed / n <= 2.1


def test_bernoulli_dyadic_costs():
    # p = 0.25 = 0.01 in binary: decided within two bits
    s = BitStream(12)
    n = 10_000
    total = sum(s.bernoulli(0.25) for _ in range(n))
    assert s.bits_consumed <= 2 * n
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(total - 0.25 * n) <= 3 * sigma


def test_bernoulli_rejects_bad_p():
    with pytest.raises(LinextError):
        BitStream(13).bernoulli(1.5)


# -- fork -------------------------------------------------------------------------

def test_fork_is_deterministic():
    a = BitStream(99).fork("run/1")
    b = BitStream(99).fork("run/1")
    assert [a.next_bit() for _ in range(128)] == [b.next_bit() for _ in range(128)]


def test_fork_labels_differ():
    root = BitStream(99)
    a = root.fork("run/1")
    b = root.fork("run/2")
    assert [a.next_bit() for _ in range(128)] != [b.next_bit() for _ in range(128)]


def test_fork_duplicate_label_rejected():
    root = BitStream(99)
    root.fork("run/1")
    with pytest.raises(LinextError):
        root.fork("run/1")


def test_fork_counters_independent():
    root = BitStream(99)
    child = root.fork("child")
    child.next_bit()
    assert root.bits_consumed == 0
    assert child.bits_consumed == 1


# -- draw_step ----------------------------------------------------------------------

def test_draw_step_pen_one_skips_c2_bits():
    s = BitStream(14)
    d = s.draw_step(2, 1.0)
    assert d == StepDraw(1, d.c1, 1)
    assert s.bits_consumed == 1  # i over {1} is free; c1 costs one; c2 free


def test_draw_step_matches_component_draws():
    # eager composition: i, then c1 = bernoulli(1/2), then c2 = bernoulli(pen)
    a = BitStream(15)
    b = BitStream(15)
    for _ in range(200):
        d = a.draw_step(7, 0.3)
        expect = StepDraw(b.uniform_int(6), b.bernoulli(0.5), b.bernoulli(0.3))
        assert d == expect
    assert a.bits_consumed == b.bits_consumed


def test_transcript_replay_identical():
    s = BitStream(16)
    recorded = [s.draw_step(5, 0.7) for _ in range(50)]
    replayed = list(recorded)
    assert replayed == recorded
    s2 = BitStream(16)
    assert [s2.draw_step(5, 0.7) for _ in range(50)] == recorded


# -- uniform_real ----------------------------------------------------------------------

def test_uniform_real_range_and_tally():
    s = BitStream(17)
    values = [s.uniform_real() for _ in range(1000)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert s.bits_continuous == 53 * 1000
    assert s.bits_consumed == 0  # continuous draws are tallied separately


def test_uniform_real_mean():
    s = BitStream(18)
    n = 50_000
    mean = sum(s.uniform_real() for _ in range(n)) / n
    assert abs(mean - 0.5) <= 3 * math.sqrt(1 / 12 / n)
