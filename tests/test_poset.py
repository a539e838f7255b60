"""Poset ingestion, closure, canonical relabeling, and counted queries."""

import hashlib
import heapq
import json
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext import (
    CycleError,
    GuardError,
    LinextError,
    ParseError,
    Poset,
    canonicalize,
    close_transitively,
    load_poset,
    parse_poset,
)
from linext import catalog
from linext.catalog import antichain_poset, chain_poset
from linext.poset import MAX_ELEMENTS


# -- parsing -----------------------------------------------------------------

def test_parse_edge_list_single_line():
    assert parse_poset("n=4; 1<3; 2<4") == (4, [(1, 3), (2, 4)])


def test_parse_edge_list_multiline_with_comments():
    text = "n=3\n# a comment\n1<2\n\n2<3"
    assert parse_poset(text) == (3, [(1, 2), (2, 3)])


def test_parse_structured():
    doc = json.dumps({"n": 2, "relations": [[1, 2]]})
    assert parse_poset(doc, "structured") == (2, [(1, 2)])


def test_parse_accepts_cycle_text():
    # cycles are a closure-time error, not a parse error
    assert parse_poset("n=2; 1<2; 2<1") == (2, [(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        close_transitively([(1, 2), (2, 1)], 2)


@pytest.mark.parametrize("bad", [
    "1<2",                      # missing n=
    "n=0",                      # n < 1
    "n=2; 1<5",                 # id out of range
    "n=2; 1-2",                 # malformed pair
    "n=x; 1<2",                 # malformed n
])
def test_parse_rejects_malformed_edge_list(bad):
    with pytest.raises(ParseError):
        parse_poset(bad)


@pytest.mark.parametrize("bad", [
    '{"relations": [[1, 2]]}',
    '{"n": 2, "relations": [[1]]}',
    '{"n": 2, "relations": [[1, 3]]}',
    '[1, 2]',
    'not json',
    '{"n": true}',                              # JSON booleans are not integers
    '{"n": 3, "relations": [[true, 2]]}',
])
def test_parse_rejects_malformed_structured(bad):
    with pytest.raises(ParseError):
        parse_poset(bad, "structured")


_SMALL = st.booleans() | st.integers(-3, 6)
_JSON = st.recursive(
    st.none() | _SMALL | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "relations", "x"]), inner, max_size=3),
    max_leaves=12,
)
_DOC = st.fixed_dictionaries({
    "n": _SMALL | _JSON,
    "relations": st.lists(st.lists(_SMALL | _JSON, max_size=3), max_size=4),
})
_EDGE_TOKENS = ["n=", "n=3", "n=5", "n=0", "1<2", "2<1", "3<1", "1<1", "4<5", "<",
                ";", "\n", "#", " ", "1", "-1", "x", "\u0663", "1<2<3"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_EDGE_TOKENS), max_size=12).map("".join),
    _JSON.map(json.dumps),
    _DOC.map(json.dumps),
), st.sampled_from(["auto", "edge-list", "structured"]))
def test_load_poset_returns_a_poset_or_raises_linext_error(text, fmt):
    try:
        poset, _ = load_poset(text, fmt)
    except LinextError:
        return
    assert isinstance(poset, Poset) and type(poset.n) is int


def test_parse_auto_detects_format():
    assert parse_poset('{"n": 2, "relations": [[1, 2]]}') == (2, [(1, 2)])
    assert parse_poset("n=2; 1<2") == (2, [(1, 2)])


# -- closure -----------------------------------------------------------------

def test_closure_adds_transitive_pair():
    poset = close_transitively([(1, 2), (2, 3)], 3)
    assert poset.less(1, 3)
    assert (1, 3) in poset.relation_pairs()


def test_closure_empty_relation_is_antichain():
    poset = close_transitively([], 3)
    assert poset.relation_pairs() == []


def test_closure_detects_longer_cycle():
    with pytest.raises(CycleError):
        close_transitively([(1, 2), (2, 3), (3, 1)], 3)


def test_closure_size_guard_runs_first():
    # n is checked before anything of size n is allocated or any pair is read
    with pytest.raises(GuardError):
        close_transitively(iter([(0, 0)]), MAX_ELEMENTS + 1)
    with pytest.raises(GuardError, match="too large"):
        load_poset("n=200000000")


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.data())
def test_closure_is_transitive_and_irreflexive(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    try:
        poset = close_transitively(pairs, n)
    except CycleError:
        return
    for a in range(1, n + 1):
        assert not poset.less(a, a)
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if poset.less(a, b) and poset.less(b, c):
                    assert poset.less(a, c)


# -- canonicalization --------------------------------------------------------

def test_canonicalize_antichain_is_identity():
    poset = close_transitively([], 3)
    canon, relab = canonicalize(poset)
    assert relab.original_to_canonical == (0, 1, 2, 3)
    assert canon == poset


def test_canonicalize_reversed_pair():
    # 3 < 1 with element 2 free: minimal-id-first removes 2, then 3, then 1
    poset = close_transitively([(3, 1)], 3)
    canon, relab = canonicalize(poset)
    assert relab.original_to_canonical == (0, 3, 1, 2)
    assert relab.canonical_to_original == (0, 2, 3, 1)
    assert canon.identity_is_extension
    assert canon.is_linear_extension((1, 2, 3))


def test_canonicalize_chain_is_identity():
    poset = chain_poset(3)
    canon, relab = canonicalize(poset)
    assert relab.original_to_canonical == (0, 1, 2, 3)
    assert canon == poset


def test_relabeling_round_trip():
    _, relab = load_poset("n=4; 4<2; 3<1")
    sigma = (1, 2, 3, 4)
    assert tuple(relab.original_to_canonical[v] for v in relab.to_original(sigma)) == sigma


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_canonical_poset_orients_forward(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=10))
    try:
        canon, _ = canonicalize(close_transitively(pairs, n))
    except CycleError:
        return
    assert canon.identity_is_extension
    for a, b in canon.relation_pairs():
        assert a < b
    assert canon.is_linear_extension(tuple(range(1, n + 1)))


def _canonicalize_reference(poset):
    """The original relabeling: scan for the smallest-id minimal element until
    none is left, then move every pair of the closure to the new labels.
    Returns the canonical successor masks and original_to_canonical."""
    n = poset.n
    remaining = ((1 << (n + 1)) - 1) & ~1
    orig_to_canon = [0] * (n + 1)
    for label in range(1, n + 1):
        e = next(c for c in range(1, n + 1)
                 if (remaining >> c) & 1 and poset.below_mask(c) & remaining == 0)
        orig_to_canon[e] = label
        remaining &= ~(1 << e)
    above = [0] * (n + 1)
    for a, b in poset.relation_pairs():
        above[orig_to_canon[a]] |= 1 << orig_to_canon[b]
    return tuple(above), tuple(orig_to_canon)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_canonicalize_matches_reference(n, data):
    # pairs oriented along a random permutation, so the order is acyclic and
    # its labels are shuffled
    perm = data.draw(st.permutations(range(1, n + 1)))
    slots = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    poset = close_transitively([(perm[min(i, j)], perm[max(i, j)]) for i, j in slots if i != j], n)
    for b in range(1, n + 1):
        assert poset.below_mask(b) == sum(1 << a for a in range(1, n + 1) if poset.less(a, b))
    canon, relab = canonicalize(poset)
    above, orig_to_canon = _canonicalize_reference(poset)
    assert relab.original_to_canonical == orig_to_canon
    assert canon.raw_masks == above
    for v in range(n + 1):
        assert relab.canonical_to_original[orig_to_canon[v]] == v


def _bit_matrix(masks, n):
    """The masks as 0/1 rows: entry (a, b) is bit b of masks[a], b in 0..n."""
    width = n // 8 + 1
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n + 1, bitorder="little")


def _masks(bits):
    """Inverse of _bit_matrix: one int mask per 0/1 row."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _numpy_reference(poset):
    """The bit-matrix round trips of the numpy poset module: the below masks
    by transposing, the pairs and digest by listing nonzero entries, and the
    canonical sort by indegrees and a heap, relabeled by reindexing the
    matrix. Returns (below, pairs, digest, canonical masks, original to
    canonical, canonical to original)."""
    n = poset.n
    bits = _bit_matrix(poset.raw_masks, n)
    rows, cols = np.nonzero(bits)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    payload = f"{n};" + ";".join(
        f"{a}<" + f";{a}<".join(map(str, np.flatnonzero(bits[a]).tolist()))
        for a in range(1, n + 1) if poset.raw_masks[a])
    first = np.searchsorted(rows, np.arange(n + 2)).tolist()
    cols = cols.tolist()
    indegree = bits.sum(axis=0).tolist()
    minimal = [e for e in range(1, n + 1) if indegree[e] == 0]
    canon_to_orig = [0]
    while minimal:
        e = heapq.heappop(minimal)
        canon_to_orig.append(e)
        for f in cols[first[e]:first[e + 1]]:
            indegree[f] -= 1
            if not indegree[f]:
                heapq.heappush(minimal, f)
    orig_to_canon = [0] * (n + 1)
    for label, e in enumerate(canon_to_orig):
        orig_to_canon[e] = label
    canon = _masks(bits[np.ix_(canon_to_orig, canon_to_orig)])
    return (_masks(bits.T), pairs, hashlib.sha256(payload.encode()).hexdigest()[:16],
            canon, tuple(orig_to_canon), tuple(canon_to_orig))


def _int_mask_view(poset):
    canon, relab = canonicalize(poset)
    return (tuple(poset.below_mask(b) for b in range(poset.n + 1)), poset.relation_pairs(),
            poset.digest(), canon.raw_masks, relab.original_to_canonical,
            relab.canonical_to_original)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.3, 0.7])
def test_int_masks_match_numpy_reference(n, density):
    # orders along a shuffled labeling, so the relabel moves every element;
    # n = 63..65 and 130 put the top bits at and past 64-bit word edges
    rng = random.Random(1000 * n + int(100 * density))
    for _ in range(3):
        perm = rng.sample(range(1, n + 1), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        poset = close_transitively(pairs, n)
        assert _int_mask_view(poset) == _numpy_reference(poset)


def test_int_masks_match_numpy_reference_on_a_long_chain():
    perm = random.Random(3).sample(range(1, 2001), 2000)
    poset = close_transitively(zip(perm, perm[1:]), 2000)
    assert _int_mask_view(poset) == _numpy_reference(poset)


# -- counted queries ---------------------------------------------------------

def test_query_counter_is_thread_safe():
    poset = antichain_poset(4)
    per_thread = 5000

    def worker():
        for _ in range(per_thread):
            poset.add_queries(1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert poset.query_count == 4 * per_thread


# -- linear extension recognition ---------------------------------------------

def test_is_linear_extension_on_chain():
    chain = chain_poset(4)
    assert chain.is_linear_extension((1, 2, 3, 4))
    assert not chain.is_linear_extension((2, 1, 3, 4))


def test_is_linear_extension_two_pairs(pairs4):
    # checked against the brute-force definition by hand: no later element
    # precedes an earlier one
    assert pairs4.is_linear_extension((2, 1, 4, 3))
    assert not pairs4.is_linear_extension((3, 1, 2, 4))


def test_is_linear_extension_rejects_non_permutation():
    with pytest.raises(ParseError):
        chain_poset(3).is_linear_extension((1, 1, 2))


def _relation_pairs_reference(poset):
    """The original pair scan: every (a, b) with bit b of a's successor mask set."""
    out = []
    for a in range(1, poset.n + 1):
        mask = poset.raw_masks[a]
        for b in range(1, poset.n + 1):
            if (mask >> b) & 1:
                out.append((a, b))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.data())
def test_relation_pairs_match_reference(n, data):
    # pairs oriented along a random permutation, so the order is acyclic; n
    # past 64 spans more than one 64-bit word of the masks
    perm = data.draw(st.permutations(range(1, n + 1)))
    slots = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    poset = close_transitively([(perm[min(i, j)], perm[max(i, j)]) for i, j in slots if i != j], n)
    pairs = poset.relation_pairs()
    assert pairs == _relation_pairs_reference(poset)
    assert all(type(a) is int and type(b) is int for a, b in pairs)
    payload = f"{n};" + ";".join(f"{a}<{b}" for a, b in _relation_pairs_reference(poset))
    assert poset.digest() == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_digest_is_stable_and_label_sensitive():
    a = load_poset("n=3; 1<2")[0]
    b = load_poset("n=3; 1<2")[0]
    c = load_poset("n=3; 1<3")[0]
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


@pytest.mark.parametrize("build,digest", [
    (catalog.two_pairs_poset, "82c412a8d12facaf"),
    (catalog.vee_poset, "5525b106557bceea"),
    (catalog.wedge_poset, "193c548e7d1e5d56"),
    (catalog.zigzag_poset, "a3708986bee5166a"),
    (lambda: catalog.grid_poset(3, 4), "a843ace3e4fe4a7d"),
    (lambda: antichain_poset(5), "58f5f875afd05a87"),
    (lambda: chain_poset(5), "604913eddc60b291"),
    (lambda: chain_poset(2000), "e063e06f9f8752ca"),
], ids=["two-pairs", "vee", "wedge", "zigzag", "grid-3x4", "antichain-5", "chain-5",
        "chain-2000"])
def test_digest_is_pinned(build, digest):
    # selftest's stream labels embed the digest, so its bytes never change
    assert build().digest() == digest
