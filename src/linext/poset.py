"""Finite strict partial orders on {1..n}: parsing, closure, canonical relabeling,
a comparison counter, and linear-extension recognition.

Elements are the integers 1..n throughout. The order is stored as its transitive
closure so that a single comparison is an O(1) bit probe, as one int mask of
successors and one of predecessors per element. The predecessor masks and the
canonical relabeling transpose the masks as one binary string, and pairs are
listed from a mask's binary digits, so loading an order imports no numpy.
Every comparison made on behalf of a sampler is tallied in ``query_count``;
this is the comparison budget the samplers report.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from .errors import CycleError, GuardError, ParseError

Pair = tuple[int, int]

MAX_ELEMENTS = 2000  # largest n closed; the closure is O(n^2) big-int operations


class Poset:
    """Immutable strict partial order on {1..n} with a comparison counter.

    The relation is kept as per-element successor bitmasks (``above(a)`` has bit
    b set iff a precedes b). The only mutable piece of state is the query
    counter, which is lock-protected so posets can be shared across threads.
    """

    __slots__ = ("n", "_above", "_below", "_qcount", "_qlock", "_identity_ext")

    def __init__(self, n: int, above: Sequence[int]):
        if n < 1:
            raise ParseError("poset needs at least one element")
        self.n = n
        self._above = tuple(above)
        self._below = _transpose(self._above, n)
        self._qcount = 0
        self._qlock = threading.Lock()
        self._identity_ext = all(
            self._above[a] & ((1 << (a + 1)) - 1) == 0 for a in range(1, n + 1)
        )

    # -- comparison counter -------------------------------------------------

    @property
    def query_count(self) -> int:
        return self._qcount

    def add_queries(self, k: int) -> None:
        """Bulk-tally k order queries made through the raw masks (chain steps)."""
        with self._qlock:
            self._qcount += k

    # -- uncounted access (oracles, validation, bookkeeping) -----------------

    def less(self, a: int, b: int) -> bool:
        """Uncounted order probe for oracles and validation."""
        return bool((self._above[a] >> b) & 1)

    def below_mask(self, b: int) -> int:
        """Bitmask of predecessors of b. Uncounted."""
        return self._below[b]

    @property
    def raw_masks(self) -> tuple[int, ...]:
        """Successor masks indexed by element; index 0 unused. Uncounted access."""
        return self._above

    @property
    def identity_is_extension(self) -> bool:
        """True iff a < b (as integers) whenever a precedes b; holds after canonicalize."""
        return self._identity_ext

    def relation_pairs(self) -> list[Pair]:
        """All pairs (a, b) of the transitive closure, sorted."""
        return [(a, b) for a in range(1, self.n + 1) for b in _pick(count(), self._above[a])]

    def is_linear_extension(self, sigma: Sequence[int]) -> bool:
        """True iff sigma is a permutation of 1..n with no pair inverted against
        the order: there is no i < j with sigma[j] preceding sigma[i]."""
        n = self.n
        if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
            raise ParseError("sigma is not a permutation of 1..n")
        seen = 0
        for v in sigma:
            if self._above[v] & seen:
                return False
            seen |= 1 << v
        return True

    def digest(self) -> str:
        """Stable hash of (n, closure); identifies the instance in reports."""
        names = [str(b) for b in range(self.n + 1)]
        payload = f"{self.n};" + ";".join(
            f"{a}<" + f";{a}<".join(_pick(names, mask))
            for a, mask in enumerate(self._above) if mask)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, relations={self.relation_pairs()!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self._above == other._above

    def __hash__(self) -> int:
        return hash((self.n, self._above))

    # -- pickling (locks are not picklable) ----------------------------------

    def __getstate__(self):
        return {"n": self.n, "above": self._above, "qcount": self._qcount}

    def __setstate__(self, state):
        self.__init__(state["n"], state["above"])
        self._qcount = state["qcount"]


@dataclass(frozen=True)
class Relabeling:
    """Element renaming produced by canonicalize; maps are mutual inverses.

    Both tuples are indexed by element id with slot 0 unused.
    """

    original_to_canonical: tuple[int, ...]
    canonical_to_original: tuple[int, ...]

    def to_original(self, sigma: Sequence[int]) -> tuple[int, ...]:
        """Rewrite a permutation of canonical labels in the original labels."""
        return tuple(self.canonical_to_original[v] for v in sigma)


def parse_poset(text: str, fmt: str = "auto") -> tuple[int, list[Pair]]:
    """Parse a poset document into (n, relation pairs), without closing it.

    Edge-list format: an ``n=<int>`` declaration followed by ``a<b`` entries,
    separated by newlines or semicolons. Structured format: a JSON object with
    an integer field ``n`` and an array ``relations`` of [a, b] pairs. Either
    way a pair (a, b) means a precedes b. Cycles are accepted here and rejected
    at closure time.
    """
    if fmt == "auto":
        fmt = "structured" if text.lstrip().startswith("{") else "edge-list"
    if fmt == "structured":
        return _parse_structured(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise ParseError(f"unknown poset format: {fmt!r}")


def _parse_edge_list(text: str) -> tuple[int, list[Pair]]:
    tokens = [t.strip() for chunk in text.splitlines() for t in chunk.split(";")]
    tokens = [t for t in tokens if t and not t.startswith("#")]
    if not tokens or not tokens[0].replace(" ", "").startswith("n="):
        raise ParseError("edge-list input must start with an n=<int> declaration")
    head = tokens[0].replace(" ", "")
    try:
        n = int(head[2:])
    except ValueError as exc:
        raise ParseError(f"bad element count: {tokens[0]!r}") from exc
    if n < 1:
        raise ParseError("n must be at least 1")
    pairs: list[Pair] = []
    for tok in tokens[1:]:
        left, sep, right = tok.partition("<")
        if not sep:
            raise ParseError(f"expected a<b, got {tok!r}")
        try:
            a, b = int(left), int(right)
        except ValueError as exc:
            raise ParseError(f"non-integer element in {tok!r}") from exc
        _check_range(a, b, n)
        pairs.append((a, b))
    return n, pairs


def _parse_structured(text: str) -> tuple[int, list[Pair]]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("structured input must be an object with field 'n'")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    rels = doc.get("relations", [])
    if not isinstance(rels, list):
        raise ParseError("field 'relations' must be an array of [a, b] pairs")
    pairs: list[Pair] = []
    for item in rels:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))):
            raise ParseError(f"relation entry is not a 2-element integer array: {item!r}")
        a, b = item
        _check_range(a, b, n)
        pairs.append((a, b))
    return n, pairs


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true and false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_range(a: int, b: int, n: int) -> None:
    if not (1 <= a <= n and 1 <= b <= n):
        raise ParseError(f"element id out of range 1..{n}: ({a}, {b})")


def close_transitively(pairs: Iterable[Pair], n: int) -> Poset:
    """Build the Poset whose relation is the transitive closure of the pairs.

    Raises CycleError when the closure would put any element below itself, and
    GuardError, before allocating anything, when n exceeds MAX_ELEMENTS.
    """
    if n < 1:
        raise ParseError("n must be at least 1")
    if n > MAX_ELEMENTS:
        raise GuardError(f"n={n} is too large: at most {MAX_ELEMENTS} elements are supported")
    above = [0] * (n + 1)
    for a, b in pairs:
        _check_range(a, b, n)
        above[a] |= 1 << b
    for k in range(1, n + 1):
        bit = 1 << k
        reach = above[k]
        for a in range(1, n + 1):
            if above[a] & bit:
                above[a] |= reach
    # A cycle through a puts a below itself once closed.
    for a in range(1, n + 1):
        if (above[a] >> a) & 1:
            raise CycleError(f"not a partial order: element {a} lies on a cycle")
    return Poset(n, above)


def canonicalize(poset: Poset) -> tuple[Poset, Relabeling]:
    """Relabel elements by a deterministic topological sort so the identity
    permutation becomes a linear extension.

    Repeatedly removes the smallest-id minimal element; the k-th element
    removed gets canonical label k. Downstream samplers assume this canonical
    form (the home extension is then the identity). The minimal elements are
    those of the rest that no successor mask of the rest holds; a tree of ORs
    over the successor masks keeps that union at O(log n) ORs per removal.
    """
    n, above = poset.n, poset.raw_masks
    size = 1 << n.bit_length()  # leaves 0..n, padded to a power of two
    tree = [0] * size + list(above) + [0] * (size - n - 1)
    for i in range(size - 1, 0, -1):
        tree[i] = tree[2 * i] | tree[2 * i + 1]
    rest = (2 << n) - 2
    canon_to_orig = [0]
    while rest:
        free = rest & ~tree[1]
        if not free:  # unreachable on a valid poset
            raise CycleError("topological sort failed; relation is cyclic")
        e = (free & -free).bit_length() - 1
        canon_to_orig.append(e)
        rest ^= 1 << e
        i = size + e
        tree[i] = 0
        while i > 1:
            i >>= 1
            tree[i] = tree[2 * i] | tree[2 * i + 1]
    orig_to_canon = [0] * (n + 1)
    for label, e in enumerate(canon_to_orig):
        orig_to_canon[e] = label
    if not poset.identity_is_extension:  # else the sort is the identity
        # bit j of row a is a < canon_to_orig[j]; row canon_to_orig[k] is then canonical k
        rows = _transpose([poset.below_mask(e) for e in canon_to_orig], n)
        above = [rows[e] for e in canon_to_orig]
    return Poset(n, above), Relabeling(tuple(orig_to_canon), tuple(canon_to_orig))


_BIT = bytes.maketrans(b"01", b"\0\1")


def _pick(items: Iterable, mask: int) -> Iterator:
    """The items at the set bits of mask, in increasing order of bit."""
    return compress(items, f"{mask:b}".encode()[::-1].translate(_BIT))


def _transpose(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Column b of the masks, for b in 0..n: bit a of it is bit b of masks[a].
    The rows, last first, are written as one binary string; a column is then
    every (n + 1)-th digit."""
    text = "".join(format(m, f"0{n + 1}b") for m in reversed(masks))
    return tuple(int(text[n - b::n + 1], 2) for b in range(n + 1))


def load_poset(text: str, fmt: str = "auto") -> tuple[Poset, Relabeling]:
    """Parse, close, and canonicalize a poset document in one call."""
    n, pairs = parse_poset(text, fmt)
    return canonicalize(close_transitively(pairs, n))
