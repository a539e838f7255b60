"""Exact oracles: counting, enumeration, the normalizer, and the kernel."""

import gc
import math
import os
import random
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from linext import (
    BetaParam,
    GuardError,
    LinextError,
    StepDraw,
    canonicalize,
    chain_kernel,
    chain_step,
    close_transitively,
    count_exact,
    enumerate_extensions,
    partition_z,
    stationarity_gap,
    weight,
)
from linext import catalog, exact
from linext.catalog import antichain_poset, chain_poset, grid_poset, random_poset

from conftest import SMALL_POSET_BUILDERS, brute_force_extensions, grid_hook_count, max_displacement


# -- count_exact --------------------------------------------------------------

def test_count_chain_is_one(chain5):
    assert count_exact(chain5) == 1


def test_count_antichain_is_factorial(antichain4):
    assert count_exact(antichain4) == 24


def test_count_two_pairs(pairs4):
    # C(4,2) interleavings of two independent 2-chains
    assert count_exact(pairs4) == 6
    assert count_exact(pairs4) == len(brute_force_extensions(pairs4))


def test_count_grid(grid23):
    # equals the standard Young tableaux count of the 2x3 rectangle
    assert count_exact(grid23) == 5
    assert count_exact(grid23) == len(brute_force_extensions(grid23))


def test_count_respects_cap(monkeypatch):
    # the cap is now on the ideals in one layer, not on n;
    # antichain(6) has at most C(6, 3) = 20 ideals in one layer
    monkeypatch.setattr(exact, "STATE_LIMIT", 20)
    assert count_exact(antichain_poset(6)) == 720
    monkeypatch.setattr(exact, "STATE_LIMIT", 19)
    with pytest.raises(GuardError, match="too large"):
        count_exact(antichain_poset(6))


def _bottom_middle_top(m):
    """One bottom below an antichain of m below one top: n = m + 2, and the
    only minimal and the only maximal elements are the bottom and the top."""
    top = m + 2
    return close_transitively([(1, v) for v in range(2, top)] + [(v, top) for v in range(2, top)],
                              top)


def test_count_state_limit_trips_inside_a_layer(monkeypatch):
    # one minimal and one maximal element pass the width check; the middle
    # antichain(12) puts 66 then 220 ideals in layers 3 and 4, and the check
    # after each source ideal stops layer 4 within one ideal's 10 pushes
    monkeypatch.setattr(exact, "STATE_LIMIT", 100)
    with pytest.raises(GuardError) as exc:
        count_exact(_bottom_middle_top(12))
    held = int(re.search(r"(\d+) ideals in layer 4", str(exc.value)).group(1))
    assert 100 < held <= 110


@pytest.mark.parametrize("pairs,n", [
    ([], 23),  # 23 minimal elements
    ([(1, v) for v in range(2, 25)], 24),  # one bottom below 23 maximal elements
    ([(v, 24) for v in range(1, 24)], 24),  # 23 minimal elements below one top
])
def test_count_refuses_wide_orders_before_any_layer(pairs, n):
    # C(23, 11) = 1352078 ideals of one size exceed STATE_LIMIT = 10^6, while
    # C(22, 11) = 705432 would not; the refusal comes before any layer is built
    with pytest.raises(GuardError, match=r"23 minimal or maximal elements put C\(23, 11\)"):
        count_exact(close_transitively(pairs, n))


def test_count_width_check_spares_banded_sums():
    # below the full band the width check does not apply: Z(1) of antichain(23)
    # sums the extensions with every displacement at most 1, 2^22 of them
    assert partition_z(antichain_poset(23), BetaParam(1.0, 23)) == 2.0 ** 22


def test_count_leaves_no_reference_cycle():
    # the memo is freed when the call returns, not at the next cyclic GC
    poset = antichain_poset(6)
    gc.collect()
    gc.disable()
    try:
        count_exact(poset)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_matches_enumeration_on_random_posets():
    rng = random.Random(2024)
    for _ in range(30):
        poset = random_poset(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
        assert count_exact(poset) == len(enumerate_extensions(poset))


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 6), (3, 20)])
def test_count_grid_hook_length(rows, cols):
    # 3x20 is n = 60: the DP's cost follows width, not n
    assert count_exact(grid_poset(rows, cols)) == grid_hook_count(rows, cols)


@pytest.mark.parametrize("n", [1, 7, 12])
def test_count_antichain_factorial(n):
    assert count_exact(antichain_poset(n)) == math.factorial(n)


@pytest.mark.parametrize("lengths", [[1], [3, 2], [2] * 6, [4, 4, 3], [5, 5, 4, 4, 3, 3]])
def test_count_chain_union_multinomial(lengths):
    pairs = []
    start = 1
    for m in lengths:
        pairs += [(start + j, start + j + 1) for j in range(m - 1)]
        start += m
    poset = close_transitively(pairs, sum(lengths))
    multinomial = math.factorial(sum(lengths))
    for m in lengths:
        multinomial //= math.factorial(m)
    assert count_exact(poset) == multinomial


def _forest(rng, n):
    """Random rooted forest on 1..n with each root below its subtree, and its
    count by Knuth's hook formula n! / prod |subtree|."""
    parent = [0] * (n + 1)
    pairs = []
    for v in range(2, n + 1):
        if rng.random() < 0.8:
            parent[v] = rng.randint(1, v - 1)
            pairs.append((parent[v], v))
    size = [1] * (n + 1)
    for v in range(n, 1, -1):
        if parent[v]:
            size[parent[v]] += size[v]
    return close_transitively(pairs, n), math.factorial(n) // math.prod(size[1:])


def test_count_forest_hook_formula():
    rng = random.Random(31)
    for n in (1, 5, 9, 14, 18):
        poset, hook = _forest(rng, n)
        assert count_exact(poset) == hook


# -- both DP paths against the dict DP -------------------------------------------

def _dict_layered_sum(poset, cap, pen):
    """Reference: the DP as one dict of ideal bitmasks per layer, summing each
    ideal's weight over its source ideals in layer order and its elements in
    increasing order, with the per-source-ideal guard on exact.STATE_LIMIT;
    ints from 1 at the int pen 1, floats from 1.0 at a float pen."""
    n = poset.n
    if cap >= n:
        w = max(sum(not poset.below_mask(v) for v in range(1, n + 1)),
                sum(not mask for mask in poset.raw_masks[1:]))
        if math.comb(w, w // 2) > exact.STATE_LIMIT:
            raise GuardError(f"n={n} too large: {w} minimal or maximal elements put "
                             f"C({w}, {w // 2}) ideals in one layer, over the limit "
                             f"{exact.STATE_LIMIT}")
    # ints hash modulo 2^61 - 1: past n = 60 a random tag above bit n parts the keys
    tag = random.Random(n).getrandbits if n > 60 else lambda bits: 0
    moves = [(1 << v, (1 << v) | poset.below_mask(v), (1 << v) + (tag(61) << n + 1))
             for v in range(1, n + 1)]
    layer = {0: 1 if isinstance(pen, int) else 1.0}
    for p in range(n):
        free, at_cap = moves[:p + cap], moves[p + cap:p + cap + 1]
        nxt = {}
        get = nxt.get
        for ideal, w in layer.items():
            missing = ~ideal
            for low, need, step in free:
                if need & missing == low:  # v is unplaced and its predecessors are placed
                    key = ideal + step
                    nxt[key] = get(key, 0) + w
            for low, need, step in at_cap:
                if need & missing == low:
                    nxt[ideal + step] = get(ideal + step, 0) + w * pen
            if len(nxt) > exact.STATE_LIMIT:
                raise GuardError(f"n={n} too large: {len(nxt)} ideals in layer {p + 1}, "
                                 f"over the limit {exact.STATE_LIMIT}")
        layer = nxt
    return sum(layer.values())


_PENS = (1, 0.5, 0.75, 0.3)


def _layer_passes():
    """The C DP when the kernel is in use, then the Python loop."""
    return [k for k in (exact._kernel,) if k is not None] + [None]


def _each_layer_pass(dp, *args):
    """dp(*args) with each DP path, as a result or the GuardError message."""
    out = []
    for kernel in _layer_passes():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_kernel", kernel)
            try:
                out.append(dp(*args))
            except GuardError as exc:
                out.append(str(exc))
    return out


def _same_sum(poset, cap, pen):
    # identical ints and bit-identical floats, of the same type, both ways
    ref = _dict_layered_sum(poset, cap, pen)
    for got in _each_layer_pass(exact._layered_sum, poset, cap, pen):
        assert type(got) is type(ref) and got == ref, (poset, cap, pen, got, ref)


def _chain_union(lengths):
    pairs = []
    start = 1
    for m in lengths:
        pairs += [(start + j, start + j + 1) for j in range(m - 1)]
        start += m
    return close_transitively(pairs, sum(lengths))


def _small_orders():
    rng = random.Random(11)
    return (catalog.small_test_posets() + [grid_poset(2, 3), grid_poset(3, 4)]
            + [random_poset(rng, rng.randint(1, 10), rng.uniform(0.1, 0.8)) for _ in range(30)])


def test_dp_matches_dict_reference_at_every_cap():
    # identical ints and bit-identical floats: every sum is added in the same order
    for poset in _small_orders():
        for cap in range(poset.n + 1):
            for pen in _PENS:
                _same_sum(poset, cap, pen)


@pytest.mark.parametrize("poset", [
    antichain_poset(18), _chain_union([2] * 11), _chain_union([3] * 8), _chain_union([4] * 6),
    _chain_union([5, 5, 4, 4, 3, 3]), grid_poset(4, 6), grid_poset(3, 6),
], ids=["antichain-18", "chains-11x2", "chains-8x3", "chains-6x4", "chains-554433",
        "grid-4x6", "grid-3x6"])
def test_dp_matches_dict_reference_on_count_wide_shapes(poset):
    # the dict DP takes about 100 s for every cap and pen on these seven
    # orders; caps 0..6 cover the banded sums and cap n is count_exact
    for cap in range(7):
        for pen in _PENS:
            _same_sum(poset, cap, pen)
    _same_sum(poset, poset.n, 1)


def test_dp_matches_dict_reference_on_two_word_orders():
    # n = 70 puts each ideal in two words, and the reference tags its int keys
    poset = random_poset(random.Random(4), 70, 0.1)
    for cap, pen in ((2, 1), (3, 0.3), (4, 1)):
        _same_sum(poset, cap, pen)
    for pen in (1, 0.3):
        _same_sum(antichain_poset(70), 1, pen)


def test_dp_promotes_past_int64():
    # Z(1) of antichain(70) is 2^69: at most 70 ideals per layer, two key words
    for got in _each_layer_pass(exact._layered_sum, antichain_poset(70), 1, 1):
        assert type(got) is int and got == 2 ** 69


def test_dp_counts_in_three_words():
    # C(140, 70) is about 2^136: the count of two chains of 70 needs three words
    two_chains = _chain_union([70, 70])
    for got in _each_layer_pass(count_exact, two_chains):
        assert type(got) is int and got == math.comb(140, 70)


def test_dp_sums_three_word_ints_at_pen_one_and_floats_at_a_fractional_pen():
    # two chains of 70 beside element 141, at cap 71: at pen 1 the ideals of
    # layer 69 hold ints past 2^64 and the count takes three words; at pen 0.3
    # only 141 at position 70 takes pen, and every weight is a float from 1.0
    # on; on antichain(70) at cap 2 every ideal takes a term of pen
    for pen in (1, 0.3):
        _same_sum(_chain_union([70, 70, 1]), 71, pen)
    _same_sum(antichain_poset(70), 2, 0.3)


@pytest.mark.parametrize("n", [63, 64, 127, 128])
def test_dp_matches_dict_reference_at_word_boundaries(n):
    # element 63 of a word moves only the top bit of the C pass's row hash,
    # and element 64 starts a new word: banded sums of orders ending at and
    # just past a word, and the count where the guard admits it (the random
    # order; antichain(n) stops at cap 1, as cap c puts C(n + c + 1, c + 1)
    # ideals through the dict reference)
    poset = random_poset(random.Random(n), n, 0.2)
    for cap in range(4):
        for pen in (1, 0.3):
            _same_sum(poset, cap, pen)
            if cap < 2:
                _same_sum(antichain_poset(n), cap, pen)
    _same_sum(poset, n, 1)


def test_dp_refuses_a_pen_that_is_not_one_or_a_float_at_least_zero():
    # the int pen 1 picks the exact int DP, and a weight times a negative pen
    # is no weight
    for pen in (2, 0, -0.5):
        with pytest.raises(LinextError, match="pen must be"):
            exact._layered_sum(antichain_poset(3), 1, pen)


def test_dp_guard_message_matches_dict_reference(monkeypatch):
    monkeypatch.setattr(exact, "STATE_LIMIT", 100)
    poset = _bottom_middle_top(12)
    messages = _each_layer_pass(exact._layered_sum, poset, poset.n, 1)
    with pytest.raises(GuardError) as exc:
        _dict_layered_sum(poset, poset.n, 1)
    assert messages == [str(exc.value)] * len(messages)


@pytest.mark.skipif(exact._kernel is None, reason="no C kernel was built")
def test_dps_in_threads_sum_as_they_do_alone():
    # the kernel's DP call releases the interpreter lock and owns its
    # buffers, so two threads running DPs at once get the serial sums
    jobs = [(count_exact, antichain_poset(18)), (partition_z, grid_poset(4, 6), BetaParam(2.3, 24))]
    alone = [f(*args) for f, *args in jobs]
    got = [None, None]

    def run(j):
        got[j] = [[f(*args) for f, *args in jobs] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[alone] * 3] * 2


def test_z_small_cap_on_wide_order_follows_the_band():
    # each ideal tries only the unplaced elements of 1..p + cap + 1, at most
    # two here, instead of all 400
    start = time.perf_counter()
    z = partition_z(antichain_poset(400), BetaParam(0.5, 400))
    assert time.perf_counter() - start < 0.5
    assert z == 1.8214294876533923e+70


# The count runs in a fork of the child, as in _KERNEL_CHILD below: the child's
# own ru_maxrss starts at the test runner's peak.
_GUARD_CHILD = """
import os, resource
from linext import GuardError, close_transitively, count_exact
if os.fork() == 0:
    middle = range(2, 2000)
    poset = close_transitively([(1, v) for v in middle] + [(v, 2000) for v in middle], 2000)
    try:
        count_exact(poset)
    except GuardError as exc:
        print(exc)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


def test_count_guard_trip_memory_is_bounded():
    # layer 3 of bottom < antichain(1998) < top has C(1998, 2) ideals; the
    # pass stops after the source ideal that passes the limit, holding at
    # most 96 bytes per ideal found (table slot, first pair, one-word
    # weight), not the ideals' rows
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _GUARD_CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out[0] == "n=2000 too large: 1000248 ideals in layer 3, over the limit 1000000"
    assert int(out[1]) <= 400 * 1024  # ru_maxrss is in KiB


_GUARD_TRIPS_CHILD = """
import os, resource
from linext import GuardError, close_transitively, count_exact
if os.fork() == 0:
    middle = range(2, 2000)
    poset = close_transitively([(1, v) for v in middle] + [(v, 2000) for v in middle], 2000)
    for _ in range(5):
        try:
            count_exact(poset)
        except GuardError as exc:
            print(exc)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


def test_count_guard_trips_free_their_buffers():
    # each DP's table, first pairs and weights (about 64 MB at this trip)
    # live only as long as its pass, so five guard trips in one process peak
    # within a few MB of one
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    one, five = (subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                                text=True, timeout=120, check=True).stdout.splitlines()
                 for child in (_GUARD_CHILD, _GUARD_TRIPS_CHILD))
    assert five[:5] == [one[0]] * 5
    assert int(five[5]) <= min(400 * 1024, int(one[1]) + 32 * 1024)  # ru_maxrss is in KiB


# -- enumerate_extensions -----------------------------------------------------

def test_enumerate_single_pair():
    from linext import load_poset
    poset, _ = load_poset("n=2; 1<2")
    assert enumerate_extensions(poset) == [(1, 2)]


def test_enumerate_antichain_lexicographic():
    out = enumerate_extensions(antichain_poset(3))
    assert out == sorted(out)
    assert len(out) == 6


def test_enumerate_two_pairs_matches_brute_force(pairs4):
    assert enumerate_extensions(pairs4) == sorted(brute_force_extensions(pairs4))


def test_enumeration_guard():
    with pytest.raises(GuardError, match=r"L\(P\) exceeds enumeration guard 1000"):
        enumerate_extensions(antichain_poset(8), guard=1000)
    # with a cap the guard counts the band, not L(P): 2^7 extensions within 1
    with pytest.raises(GuardError, match="more than 100 extensions lie within displacement 1"):
        enumerate_extensions(antichain_poset(8), guard=100, cap=1)


def test_enumeration_guard_stops_the_search_early():
    # 30! extensions: the guard trips after 100 of them are listed
    with pytest.raises(GuardError):
        enumerate_extensions(antichain_poset(30), guard=100)


def test_enumerate_beyond_exact_count_cap():
    # n deeper than Python's recursion limit is fine when the extensions are few
    assert enumerate_extensions(chain_poset(1200)) == [tuple(range(1, 1201))]
    assert enumerate_extensions(chain_poset(1200), cap=0) == [tuple(range(1, 1201))]


def _band_orders():
    rng = random.Random(12)
    return (catalog.small_test_posets() + [grid_poset(2, 3), grid_poset(3, 4)]
            + [random_poset(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8)) for _ in range(30)])


def test_banded_enumeration_is_the_filtered_full_list():
    # the band walk lists, in the same order, exactly the extensions of the
    # full enumeration whose every displacement is at most the cap
    for poset in _band_orders():
        full = enumerate_extensions(poset)
        for cap in range(poset.n + 1):
            banded = enumerate_extensions(poset, cap=cap)
            assert banded == [s for s in full if max_displacement(s) <= cap]


def test_enumeration_matches_brute_force():
    # a non-minimal element drops every element above its smallest unplaced
    # predecessor from the tries; the permutations filtered by definition
    # check that the skip loses no extension
    for poset in _band_orders():
        if poset.n <= 7:
            assert enumerate_extensions(poset) == sorted(brute_force_extensions(poset))


def test_enumeration_guard_counts_only_banded_states():
    # antichain(12) has 12! extensions but 2^11 within displacement 1
    assert len(enumerate_extensions(antichain_poset(12), guard=5000, cap=1)) == 2048


# -- partition_z --------------------------------------------------------------

def test_z_at_extremes(pairs4):
    n = pairs4.n
    assert partition_z(pairs4, BetaParam(float(n), n)) == pytest.approx(6.0)
    assert partition_z(pairs4, BetaParam(0.0, n)) == pytest.approx(1.0)


def test_z_antichain2_half(antichain2):
    # w((1,2)) = 1 and w((2,1)) = pen = 0.5, evaluated by hand
    assert partition_z(antichain2, BetaParam(0.5, 2)) == pytest.approx(1.5)


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_z_monotone_and_continuous_at_integers(builder):
    poset = builder()
    n = poset.n
    grid = sorted({0.0, 0.25, 0.5, 1.0, 1.3, 2.0, float(n)} | set(map(float, range(n + 1))))
    grid = [b for b in grid if b <= n]
    values = [partition_z(poset, BetaParam(b, n)) for b in grid]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-12
    for k in range(n + 1):
        zk = partition_z(poset, BetaParam(float(k), n))
        for eps in (-1e-9, 1e-9):
            if 0.0 <= k + eps <= n:
                z_near = partition_z(poset, BetaParam(k + eps, n))
                assert abs(z_near - zk) <= 1e-6 * zk


def _z_by_enumeration(poset, bp):
    return sum(weight(s, bp) for s in enumerate_extensions(poset))


def _z_orders():
    rng = random.Random(77)
    return ([builder() for builder in SMALL_POSET_BUILDERS]
            + [random_poset(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7)) for _ in range(25)])


def test_z_matches_enumeration():
    for poset in _z_orders():
        n = poset.n
        for beta in (0.0, 0.25, 0.5, 1.0, 1.3, 2.0, 2.7, 3.0, 4.5, float(n)):
            if beta <= n:
                bp = BetaParam(beta, n)
                ref = _z_by_enumeration(poset, bp)
                assert abs(partition_z(poset, bp) - ref) <= 1e-12 * ref


def test_z_above_the_reach_is_the_count_rounded_once():
    # two chains of 70 reach 70, so at cap 140 no extension meets pen: Z is
    # the exact count C(140, 70), rounded once, not a float sum of its terms
    assert partition_z(_chain_union([70, 70]), BetaParam(139.5, 140)) == float(math.comb(140, 70))


@pytest.mark.parametrize("beta", [1030.0, 514.5])
def test_z_past_the_largest_double_is_refused(beta):
    # two chains of 515 have C(1030, 515) > 1.8e308 extensions: at beta 1030
    # Z is that int, at beta 514.5 a float sum that passes the largest double
    with pytest.raises(GuardError, match="passes the largest double, 1.7976931348623157e\\+308"):
        partition_z(_chain_union([515, 515]), BetaParam(beta, 1030))


def test_integer_cap_counts_displacement_band():
    # at an integer cap the DP counts, in ints, the extensions whose largest
    # displacement is at most the cap
    for poset in _z_orders():
        extensions = enumerate_extensions(poset)
        for c in range(poset.n + 1):
            banded = exact._layered_sum(poset, c, 1)
            assert type(banded) is int
            assert banded == sum(1 for s in extensions if max_displacement(s) <= c)
            assert partition_z(poset, BetaParam(float(c), poset.n)) == banded


# -- chain kernel and stationarity ---------------------------------------------

def _moves(kernel):
    """The kernel's transitions as {(state, state): probability}."""
    return {(kernel.support[k], kernel.support[j]): p
            for k, j, p in zip(kernel.src, kernel.dst, kernel.prob)}


def test_kernel_antichain2_transition(antichain2):
    bp = BetaParam(0.5, 2)
    moves = _moves(chain_kernel(antichain2, bp))
    assert moves == {((1, 2), (2, 1)): pytest.approx(0.25),
                     ((2, 1), (1, 2)): pytest.approx(0.5)}


def test_kernel_chain_is_identity():
    kernel = chain_kernel(chain_poset(3), BetaParam(1.3, 3))
    assert kernel.support == [(1, 2, 3)]
    assert len(kernel.src) == len(kernel.dst) == len(kernel.prob) == 0


def test_kernel_lists_moves_by_slot_swap_backs_first_then_ascending_state(pairs4, grid23):
    # stationarity_gap sums its flows in the kernel's order, so the order is
    # pinned: by slot, swap backs first, then the pair's ascending state
    move, gated = 0.16666666666666666, 0.04999999999999997  # 0.5 / 3, times pen 0.3
    kernel = chain_kernel(pairs4, BetaParam(1.3, 4))
    assert list(zip(kernel.src.tolist(), kernel.dst.tolist())) == [
        (3, 0), (4, 1), (0, 3), (1, 4), (2, 0), (5, 4), (0, 2), (4, 5), (1, 0), (4, 3),
        (0, 1), (3, 4)]
    assert kernel.prob.tolist() == [move] * 7 + [gated] + [move] * 4
    kernel = chain_kernel(grid23, BetaParam(0.5, 6))
    assert list(zip(kernel.src.tolist(), kernel.dst.tolist())) == [(1, 0), (0, 1), (2, 1), (1, 2)]
    assert kernel.prob.tolist() == [0.1, 0.05, 0.1, 0.05]


def _literal_kernel(poset, bp):
    """Reference kernel: one chain_step on every (i, c1, c2), each weighted by
    its probability, as a dense matrix over the support."""
    support = enumerate_extensions(poset, cap=bp.cap)
    idx = {s: j for j, s in enumerate(support)}
    n = poset.n
    probs = np.zeros((len(support), len(support)))
    coin2 = [(1, bp.pen)] if bp.pen == 1.0 else [(0, 1.0 - bp.pen), (1, bp.pen)]
    for s in support:
        for i in range(1, n):
            for c1, p1 in ((0, 0.5), (1, 0.5)):
                for c2, p2 in coin2:
                    nxt = chain_step(s, bp, StepDraw(i, c1, c2), poset)
                    probs[idx[s], idx[nxt]] += p1 * p2 / (n - 1)
    return support, probs


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS + [
    lambda: chain_poset(2), lambda: chain_poset(4), lambda: grid_poset(2, 3),
    lambda: grid_poset(3, 4)])
def test_chain_kernel_is_the_literal_steps_marginal(builder):
    # chain_kernel is chain_step's marginal over every slot and coin off the
    # diagonal, and its implied diagonal is the rest of the row: so at every
    # cap, with pen < 1, a swap back takes no gate and a move the gate stops
    # is gated
    poset = builder()
    n = poset.n
    for beta in (0.25, 0.5, 1.0, 1.3, 2.0, *(c - 0.5 for c in range(3, n + 1)), float(n)):
        if beta > n:
            continue
        bp = BetaParam(beta, n)
        support, probs = _literal_kernel(poset, bp)
        kernel = chain_kernel(poset, bp)
        assert kernel.support == support
        dense = np.zeros_like(probs)
        dense[kernel.src, kernel.dst] = kernel.prob
        off = ~np.eye(len(support), dtype=bool)
        assert np.array_equal(dense[off], probs[off])
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(1.0 - dense.sum(axis=1), probs.diagonal(), rtol=0, atol=1e-12)


def test_kernel_keeps_only_the_free_pairs_moves():
    # an (n - 1)-chain plus one free element: n extensions, each with at most
    # two incomparable adjacent pairs, so at most two transitions leave a
    # state, not n - 1; the enumeration skips the chain above a failed
    # element's predecessor and the kernel copies each state once, not once
    # per slot, so n = 1201 takes seconds, not minutes
    for n in (301, 1201):
        poset = canonicalize(close_transitively([(k, k + 1) for k in range(1, n - 1)], n))[0]
        start = time.perf_counter()
        kernel = chain_kernel(poset, BetaParam(float(n), n))
        assert time.perf_counter() - start < 15.0
        assert len(kernel.support) == n and np.bincount(kernel.src, minlength=n).max() <= 2


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_kernel_rows_sum_to_one(builder):
    # each transition leaves its state, appears once, and no state's moves
    # take more than its whole row
    poset = builder()
    bp = BetaParam(min(1.3, poset.n), poset.n)
    kernel = chain_kernel(poset, bp)
    assert all(k != j for k, j in zip(kernel.src, kernel.dst))
    assert len(set(zip(kernel.src, kernel.dst))) == len(kernel.src)
    assert all(p > 0 for p in kernel.prob)
    out = np.bincount(kernel.src, kernel.prob, len(kernel.support))
    assert (out <= 1.0 + 1e-12).all()


def test_stationarity_antichain2_by_hand(antichain2):
    # balance solved by hand: pi = (2/3, 1/3) at beta = 0.5
    bp = BetaParam(0.5, 2)
    kernel = chain_kernel(antichain2, bp)
    w = np.array([weight(s, bp) for s in kernel.support])
    pi = w / w.sum()
    assert pi == pytest.approx([2 / 3, 1 / 3])
    assert stationarity_gap(kernel, antichain2, bp) <= 1e-12


def test_stationarity_uniform_case(antichain4):
    bp = BetaParam(4.0, 4)
    kernel = chain_kernel(antichain4, bp)
    assert stationarity_gap(kernel, antichain4, bp) <= 1e-12


def test_stationarity_chain_is_exact():
    bp = BetaParam(2.0, 5)
    poset = chain_poset(5)
    assert stationarity_gap(chain_kernel(poset, bp), poset, bp) == 0.0


def test_stationarity_gap_sees_the_wrong_weights(pairs4):
    # the kernel at beta = 1.3 is not stationary for the weights at 1.5,
    # though both have cap 2 and so the same support
    kernel = chain_kernel(pairs4, BetaParam(1.3, 4))
    assert stationarity_gap(kernel, pairs4, BetaParam(1.5, 4)) > 1e-3


# Linux starts a new program's ru_maxrss at the peak of the process that
# started it, here the test runner, so the kernel runs in a fork of the child,
# whose ru_maxrss starts afresh.
_KERNEL_CHILD = """
import os, resource, time
from linext import BetaParam, chain_kernel, stationarity_gap
from linext.catalog import antichain_poset
if os.fork() == 0:
    poset, bp = antichain_poset(9), BetaParam(1.3, 9)
    t0 = time.perf_counter()
    kernel = chain_kernel(poset, bp)
    gap = stationarity_gap(kernel, poset, bp)
    print(len(kernel.support), gap, time.perf_counter() - t0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


def test_kernel_memory_follows_the_transitions():
    # 4374 states at cap 2 on antichain(9): at most n - 1 transitions per
    # state, where a dense matrix would take 153 MB
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    size, gap, seconds = out[0].split()
    assert int(size) == 4374 and float(gap) <= 1e-10
    assert float(seconds) < 1.0
    assert int(out[1]) <= 100 * 1024  # ru_maxrss is in KiB


def test_kernel_guard(monkeypatch):
    monkeypatch.setattr(exact, "KERNEL_SUPPORT_GUARD", 100)
    with pytest.raises(GuardError):
        chain_kernel(antichain_poset(7), BetaParam(7.0, 7))
