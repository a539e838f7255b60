"""The C kernel for CFTP draws and the ideal DP's layers: built once, opened
at import, shared by ``cftp`` and ``exact`` as ``KERNEL``.

``build`` compiles ``_kernel.c`` with the system C compiler, with no fused
multiply-add (the DP's float sums round as Python's do), into the package's
``__pycache__``, under a name keyed by the sha256 of the source and the
compiler flags, and returns a ``Kernel``; it returns None when there is no
compiler, the compile fails, the directory cannot be written or the shared
object cannot be opened (a truncated file, or one built on another machine),
and callers then run the Python loops. A cached kernel costs a hash, a stat and
opening the object, well under 1 ms.

A Kernel's methods take and return what ``cftp._bounding_draw`` and
``exact._layer_loop`` do, the latter bound once per order (``dp_layers``).
``draw`` runs a whole bounding-chain draw in one C call: each block is
decoded with the bound run through it in one pass, and the blocks are kept as
arrays of uint32, two words a step (the packed step and the bound's right
entry before it), for the replay. The call makes the stream's bits itself,
in batches ahead of its reads, with the stream's own MT19937 generator, which
``BitStream.lend`` hands it once per draw with the buffered bits; at the end
it puts the generator back and makes again only the words it read from, so
draws, counters and the generator state match the Python loops exactly. A
block of at least 4096 steps (the C ``ENTRIES``) decodes a step by one lookup
of its next 12 bits in a table built once per draw; shorter blocks and the
steps that read more than 12 bits are decoded bit by bit, the same bits.
A DP layer is held in numpy arrays: its ideals' rows, in uint64 words, and
their weights, which the pass sums itself: exact ints in uint64 words when
pen is the int 1, one float64 each otherwise. The pass's own buffers, the
table included, belong to one ``dp_layers`` binding and live as long as it,
so DPs may run in parallel threads, each on its own binding.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import weakref
from ctypes import POINTER, c_double, c_int32, c_int64, c_uint64, c_void_p
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bitrng import BitStream
from .chain import BetaParam
from .errors import LinextError
from .poset import Poset

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
# the compiler flags of a build; with -ffp-contract=off a DP term x * pen is
# rounded before it is added, as Python rounds it
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_SIZES = c_int64 * 2  # a DP layer's ideals and words per weight
_OUT = c_int64 * 4  # a draw's blocks, steps, order tests, and 1 drawn, 0 refused or -1 no memory


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
    draws and the ideal DP's layers; opening it raises OSError when the file
    is not a loadable object."""

    def __init__(self, path: str):
        self.path = path
        self._lib = lib = ctypes.CDLL(path)
        lib.draw.argtypes = (c_void_p, c_void_p, c_void_p, c_int64, c_double, c_int64,
                             POINTER(c_uint64), c_int64, c_int64, c_int64, POINTER(c_int32), _OUT)
        lib.draw.restype = c_int64
        # numpy arrays pass as addresses: data_as, like a ctypes array type
        # made per call, leaves a reference cycle
        lib.dp_open.argtypes = (c_int64, c_void_p)
        lib.dp_open.restype = c_void_p
        lib.dp_layer.argtypes = (c_void_p, c_void_p, c_int64, c_void_p, c_int64, c_int64, c_int64,
                                 c_double, c_int64, _SIZES)
        lib.dp_layer.restype = c_int64
        lib.dp_take.argtypes = (c_void_p, c_void_p, c_void_p)
        lib.dp_take.restype = None
        lib.dp_close.argtypes = (c_void_p,)
        lib.dp_close.restype = None

    def draw(self, t: int, stream: BitStream, poset: Poset, bp: BetaParam,
             max_steps: int) -> tuple:
        """As cftp._bounding_draw, in one C call on the stream's generator.
        pos has 16 bits, so an order of over 2^16 elements is refused."""
        n = poset.n
        if n - 1 >= 1 << 16:
            raise LinextError(f"block steps hold positions below 2^16; n = {n} is too large")
        rows, w = _rows(poset)
        sample, out = (c_int32 * n)(), _OUT()
        run = self._lib.draw
        stream.lend(lambda state, word, avail: run(
            state.buffer_info()[0], word.buffer_info()[0], avail.buffer_info()[0], n, bp.pen,
            bp.cap, rows, w, t, max_steps, sample, out))
        levels, steps, probes, status = out
        if status < 0:
            raise MemoryError("no memory for a draw's blocks")
        return (sample[:] if status else None), steps, levels, probes

    def dp_layers(self, below: np.ndarray):
        """The C layer pass over one order, whose elements' predecessor rows
        are below: a function of (keys, weights, hi, at, pen, limit) that
        returns what exact._layer_loop(below, ...) does. below is checked and
        its address taken once. The weights are uint64 words when at is 0
        and one float64 each when at > 0. The pass's table, first pairs,
        weights and pair list are allocated once, grown as layers need, and
        freed with the function, so one DP's layers reuse them and the
        function must not run in two threads at once. A layer's rows and
        weights are made in one array and kept with their addresses, so the
        next layer, which takes them, checks only their weights' type and
        does not look their addresses up."""
        if not (below.dtype == np.uint64 and below.ndim == 2 and len(below) <= 64 * below.shape[1]
                and below.flags.c_contiguous):
            raise LinextError("ideal rows and predecessor rows do not fit each other")
        w = below.shape[1]
        lib, sizes = self._lib, _SIZES()
        run, take = lib.dp_layer, lib.dp_take
        dp = lib.dp_open(w, below.ctypes.data)
        if not dp:
            raise MemoryError("no memory for the ideal DP")
        made = [None, None, 0, 0]  # the last layer's rows and weights, and their addresses

        def layer(keys: np.ndarray, weights: np.ndarray, hi: int, at: int, pen: float,
                  limit: int) -> tuple:
            if not 0 <= hi < len(below):  # below stays referenced while the pass lives
                raise LinextError("ideal rows and predecessor rows do not fit each other")
            m, real = len(keys), at > 0
            if keys is made[0] and weights is made[1] and (weights.dtype == np.float64) == real:
                keys_at, weights_at = made[2], made[3]
            else:
                if not (keys.dtype == np.uint64 and keys.ndim == 2 and keys.shape[1] == w
                        and keys.flags.c_contiguous):
                    raise LinextError("ideal rows and predecessor rows do not fit each other")
                if not (weights.dtype == (np.float64 if real else np.uint64) and weights.ndim == 2
                        and len(weights) == m and weights.shape[1] > 0
                        and (not real or weights.shape[1] == 1) and weights.flags.c_contiguous):
                    raise LinextError("weights do not fit the ideal rows")
                keys_at, weights_at = keys.ctypes.data, weights.ctypes.data
            if not run(dp, keys_at, m, weights_at, weights.shape[1], hi, at, pen, limit, sizes):
                raise MemoryError("no memory for a layer of the ideal DP")
            held, k = sizes
            if held > limit:
                return held, None
            both = np.empty(held * (w + k), dtype=np.uint64)
            rows_at = both.ctypes.data
            sums = both[held * w:].reshape(held, k)
            out = both[:held * w].reshape(held, w), sums.view(np.float64) if real else sums
            made[:] = *out, rows_at, rows_at + 8 * held * w
            take(dp, *made[2:])  # keys stays referenced until here: dp_take reads its rows
            return held, out

        weakref.finalize(layer, lib.dp_close, dp)
        return layer


KERNEL = build()  # the C loops, or None to run the Python ones
