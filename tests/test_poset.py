"""Poset ingestion, closure, canonical relabeling, and counted queries."""

import json
import threading

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
    assert relab.to_canonical(relab.to_original(sigma)) == sigma


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


# -- counted queries ---------------------------------------------------------

def test_precedes_on_chain_and_antichain():
    chain = chain_poset(3)
    assert chain.precedes(1, 3)
    assert not chain.precedes(3, 1)
    anti = antichain_poset(3)
    assert not anti.precedes(2, 1)


def test_precedes_counts_exactly():
    poset = chain_poset(4)
    before = poset.query_count
    poset.precedes(1, 2)
    poset.precedes(2, 1)
    assert poset.query_count == before + 2


def test_precedes_rejects_out_of_range():
    with pytest.raises(ParseError):
        chain_poset(3).precedes(0, 1)
    with pytest.raises(ParseError):
        chain_poset(3).precedes(1, 4)


def test_query_counter_is_thread_safe():
    poset = antichain_poset(4)
    per_thread = 5000

    def worker():
        for _ in range(per_thread):
            poset.precedes(1, 2)

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


def test_digest_is_stable_and_label_sensitive():
    a = load_poset("n=3; 1<2")[0]
    b = load_poset("n=3; 1<2")[0]
    c = load_poset("n=3; 1<3")[0]
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
