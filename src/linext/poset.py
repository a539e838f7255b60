"""Finite strict partial orders on {1..n}: parsing, closure, canonical relabeling,
counted order queries, and linear-extension recognition.

Elements are the integers 1..n throughout. The order is stored as its transitive
closure so that a single comparison is an O(1) bit probe. Every comparison made
on behalf of a sampler is tallied in ``query_count``; this is the comparison
budget the samplers report.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CycleError, GuardError, ParseError

Pair = tuple[int, int]

MAX_ELEMENTS = 2000  # largest n closed; the closure is O(n^2) big-int operations


class Poset:
    """Immutable strict partial order on {1..n} with a counted comparison query.

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
        self._below = _masks(_bit_matrix(self._above, n).T)
        self._qcount = 0
        self._qlock = threading.Lock()
        self._identity_ext = all(
            self._above[a] & ((1 << (a + 1)) - 1) == 0 for a in range(1, n + 1)
        )

    # -- counted queries ----------------------------------------------------

    @property
    def query_count(self) -> int:
        return self._qcount

    def add_queries(self, k: int) -> None:
        """Bulk-tally k order queries made through the raw masks (chain steps)."""
        with self._qlock:
            self._qcount += k

    def precedes(self, a: int, b: int) -> bool:
        """Counted order query: does a strictly precede b?"""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ParseError(f"element out of range: precedes({a}, {b}) with n={self.n}")
        with self._qlock:
            self._qcount += 1
        return bool((self._above[a] >> b) & 1)

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
        out = []
        for a in range(1, self.n + 1):
            mask = self._above[a]
            for b in range(1, self.n + 1):
                if (mask >> b) & 1:
                    out.append((a, b))
        return out

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
        payload = f"{self.n};" + ";".join(f"{a}<{b}" for a, b in self.relation_pairs())
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

    def to_canonical(self, sigma: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.original_to_canonical[v] for v in sigma)

    @classmethod
    def identity(cls, n: int) -> "Relabeling":
        ident = tuple(range(n + 1))
        return cls(ident, ident)


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
    form (the home extension is then the identity).
    """
    n = poset.n
    bits = _bit_matrix(poset.raw_masks, n)
    rows, cols = np.nonzero(bits)  # the closure's pairs, grouped by their first element
    first = np.searchsorted(rows, np.arange(n + 2)).tolist()
    cols = cols.tolist()
    indegree = bits.sum(axis=0).tolist()
    minimal = [e for e in range(1, n + 1) if indegree[e] == 0]  # sorted, so a heap
    canon_to_orig = [0]
    while minimal:
        e = heapq.heappop(minimal)
        canon_to_orig.append(e)
        for f in cols[first[e]:first[e + 1]]:
            indegree[f] -= 1
            if not indegree[f]:
                heapq.heappush(minimal, f)
    if len(canon_to_orig) <= n:  # unreachable on a valid poset
        raise CycleError("topological sort failed; relation is cyclic")
    orig_to_canon = [0] * (n + 1)
    for label, e in enumerate(canon_to_orig):
        orig_to_canon[e] = label
    canon = Poset(n, _masks(bits[np.ix_(canon_to_orig, canon_to_orig)]))
    return canon, Relabeling(tuple(orig_to_canon), tuple(canon_to_orig))


def _bit_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """The masks as 0/1 rows: entry (a, b) is bit b of masks[a], b in 0..n."""
    width = n // 8 + 1
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n + 1, bitorder="little")


def _masks(bits: np.ndarray) -> tuple[int, ...]:
    """Inverse of _bit_matrix: one int mask per 0/1 row."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def load_poset(text: str, fmt: str = "auto") -> tuple[Poset, Relabeling]:
    """Parse, close, and canonicalize a poset document in one call."""
    n, pairs = parse_poset(text, fmt)
    return canonicalize(close_transitively(pairs, n))
