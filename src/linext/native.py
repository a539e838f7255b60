"""The C kernel for CFTP blocks and the ideal DP's layers: built once, opened
at import, shared by ``cftp`` and ``exact`` as ``KERNEL``.

``build`` compiles ``_kernel.c`` with the system C compiler, with no fused
multiply-add (the DP's float sums round as Python's do), into the package's
``__pycache__``, under a name keyed by the sha256 of the source and the
compiler flags, and returns a ``Kernel``; it returns None when there is no
compiler, the compile fails, the directory cannot be written or the shared
object cannot be opened (a truncated file, or one built on another machine),
and callers then run the Python loops. A cached kernel costs a hash, a stat and
opening the object, well under 1 ms.

A Kernel's methods take and return what ``cftp._block``, ``cftp._bound_replay``
and ``exact._layer_loop`` do, with a block kept in a ctypes array of uint32,
two words a step (the packed step and the bound's right entry before it), and
a DP layer in numpy arrays of uint64 words: its ideals' rows and their
weights, which the pass sums itself. ``block`` decodes each step and runs the
bound through it in one C pass; the bits still come only from the stream's own
words, through ``BitStream.draw_steps``, with the bound carried from one
``fill`` call to the next, so draws, counters and the generator state match
the Python loops exactly. A block of at least 4096 steps (the C
``step_entries``) decodes a step by one lookup of its next 12 bits in a table
that ``step_table`` builds once for the block; the steps that read more than
12 bits, the last steps of a buffer and shorter blocks are decoded bit by bit.
Either way a step reads the same bits. Each call allocates its own arrays, the
table included, so calls may run in parallel threads.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from ctypes import POINTER, c_char_p, c_double, c_int32, c_int64, c_uint32, c_uint64, c_void_p
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bitrng import BitStream
from .chain import BetaParam
from .errors import LinextError
from .poset import Poset

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")  # the compiler flags of a build
_SIZES = c_int64 * 3  # a DP layer's ideals, words per weight, and 1 if an int passed a double
_CARRY = c_int64 * 3  # a block's bits read by the last fill, values placed and order tests


def build(source: Path = SOURCE, cache: Path = CACHE, cc: str = "cc") -> "Kernel | None":
    """The kernel compiled from source into cache, or None if it cannot be built."""
    try:
        key = hashlib.sha256(source.read_bytes() + repr(FLAGS).encode())
        path = cache / f"_kernel-{key.hexdigest()[:16]}.so"
        if not path.exists():
            _compile(cc, source, path)
        return Kernel(str(path))
    except OSError:
        return None


def _compile(cc: str, source: Path, path: Path) -> None:
    """Compile source to path through a temporary name, so path is whole or
    absent; a failed compile raises OSError."""
    import subprocess  # only a cold cache pays for the import

    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *FLAGS, "-o", str(tmp), str(source)], check=True,
                       capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{cc} could not build {source}") from exc
    finally:
        tmp.unlink(missing_ok=True)


@lru_cache(maxsize=16)
def _rows(poset: Poset) -> tuple:
    """The order as rows of w 64-bit words, row a holding raw_masks[a], and w."""
    w = poset.n // 64 + 1
    words = [(mask >> (64 * j)) & 0xFFFF_FFFF_FFFF_FFFF
             for mask in poset.raw_masks for j in range(w)]
    return (c_uint64 * len(words))(*words), w


class Kernel:
    """The functions of the shared object at path, for the bounding chain's
    blocks and the ideal DP's layers; opening it raises OSError when the file
    is not a loadable object."""

    def __init__(self, path: str):
        self.path = path
        self._lib = lib = ctypes.CDLL(path)
        i32, u32, u64 = POINTER(c_int32), POINTER(c_uint32), POINTER(c_uint64)
        self._table = c_uint32 * c_int64.in_dll(lib, "step_entries").value  # a step table's type
        lib.step_table.argtypes = (c_int64, c_double, self._table)
        lib.block.argtypes = (c_char_p, c_int64, c_int64, c_double, u32, c_int64, c_int64,
                              c_int64, u64, c_int64, u32, i32, _CARRY)
        lib.bound_replay.argtypes = (c_int64, u64, c_int64, c_int64, u32, i32)
        for f in (lib.step_table, lib.block, lib.bound_replay):
            f.restype = c_int64
        # numpy arrays pass as addresses: data_as, like a ctypes array type
        # made per call, leaves a reference cycle
        lib.dp_layer.argtypes = (c_int64, c_void_p, c_int64, c_void_p, c_int64, c_void_p,
                                 c_int64, c_int64, c_double, c_int64, _SIZES)
        lib.dp_layer.restype = c_void_p
        lib.dp_take.argtypes = (c_void_p, c_void_p, c_void_p)
        lib.dp_take.restype = None

    def block(self, t: int, stream: BitStream, poset: Poset, bp: BetaParam) -> tuple:
        """As cftp._block: the block as an array of 2 t uint32, the bound as an
        array or None, and the probes. A block of at least as many steps as a
        step table has entries decodes by table, built once for the block; a
        shorter one bit by bit. pos has 16 bits, so an order of over 2^16
        elements is refused."""
        n, pen = poset.n, bp.pen
        if n - 1 >= 1 << 16:
            raise LinextError(f"block steps hold positions below 2^16; n = {n} is too large")
        run = self._lib.block
        steps, bnd, carry = (c_uint32 * (2 * t))(), (c_int32 * n)(), _CARRY()
        rows, w = _rows(poset)
        table = None
        if t >= self._table._length_:
            table = self._table()
            if not self._lib.step_table(n - 1, pen, table):
                table = None

        def fill(buf: bytes, nbits: int, k: int) -> tuple[int, int]:
            k = run(buf, nbits, n, pen, table, k, t, bp.cap, rows, w, steps, bnd, carry)
            return k, carry[0]

        stream.draw_steps(fill, t, n - 1, pen)
        return steps, (bnd if carry[1] == n else None), carry[2]

    def bound_replay(self, poset: Poset, bp: BetaParam, sig, block) -> tuple:
        """As cftp._bound_replay, on a state held in an int32 array."""
        if len(sig) != poset.n or len(block) % 2:
            raise LinextError("state or block array does not fit the order and the block")
        rows, w = _rows(poset)
        return sig, self._lib.bound_replay(bp.cap, rows, w, len(block) // 2, block, sig)

    def dp_layer(self, keys: np.ndarray, weights: np.ndarray, below: np.ndarray, hi: int,
                 at: int, pen: float, limit: int) -> tuple:
        """As exact._layer_loop."""
        m, w = keys.shape
        if not (keys.dtype == below.dtype == np.uint64 and below.shape[1] == w
                and 0 <= hi < len(below) <= 64 * w and keys.flags.c_contiguous
                and below.flags.c_contiguous):
            raise LinextError("ideal rows and predecessor rows do not fit each other")
        if not (weights.dtype == np.uint64 and weights.ndim == 2 and len(weights) == m
                and weights.shape[1] > 0 and weights.flags.c_contiguous):
            raise LinextError("weights do not fit the ideal rows")
        sizes = _SIZES()
        layer = self._lib.dp_layer(w, keys.ctypes.data, m, weights.ctypes.data,
                                   weights.shape[1], below.ctypes.data, hi, at, pen, limit,
                                   sizes)
        if not layer:
            raise MemoryError("no memory for a layer of the ideal DP")
        held, k, overflow = sizes
        rows = sums = None
        try:
            if overflow:
                raise OverflowError("int too large to convert to float")
            if held <= limit:
                rows = np.empty((held, w), dtype=np.uint64)
                sums = np.empty((held, k), dtype=np.uint64)
        finally:  # keys stays referenced until here: dp_take reads its rows
            self._lib.dp_take(layer, *((None, None) if sums is None
                                       else (rows.ctypes.data, sums.ctypes.data)))
        return held, None if rows is None else (rows, sums)


KERNEL = build()  # the C loops, or None to run the Python ones
