"""The C kernel for CFTP draws and the ideal DP: built once, opened at
import, shared by ``cftp`` and ``exact`` as ``KERNEL``.

``build`` compiles ``_kernel.c`` with the system C compiler, with no fused
multiply-add (the DP's float sums round as Python's do), into the package's
``__pycache__``, under a name keyed by the sha256 of the source and the
compiler flags, and returns a ``Kernel``; it returns None when there is no
compiler, the compile fails, the directory cannot be written or the shared
object cannot be opened (a truncated file, or one built on another machine),
and callers then run the Python loops. A cached kernel costs a hash, a stat and
opening the object, well under 1 ms.

A Kernel's methods take and return what ``cftp._bounding_draw`` and
``exact._layer_loop`` do, each in one C call, which releases the interpreter
lock. ``draw`` runs a whole bounding-chain draw in one C call: each block is
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
``dp_sum`` runs a whole ideal DP, every layer of it, and returns the one
sum: exact ints in uint64 words when pen is the int 1, doubles otherwise.
Its layers live in buffers of its own, freed before it returns, so DPs may
run in parallel threads.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import sys
from array import array
from ctypes import POINTER, c_double, c_int32, c_int64, c_uint64, c_void_p
from functools import lru_cache
from pathlib import Path

from .bitrng import BitStream
from .chain import BetaParam
from .errors import LinextError
from .poset import Poset

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
# the compiler flags of a build; with -ffp-contract=off a DP term x * pen is
# rounded before it is added, as Python rounds it
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
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
    words = array("Q", b"".join(mask.to_bytes(8 * w, "little") for mask in poset.raw_masks))
    if sys.byteorder == "big":
        words.byteswap()
    return (c_uint64 * len(words)).from_buffer_copy(words), w


class Kernel:
    """The functions of the shared object at path, for the bounding chain's
    draws and the ideal DP; opening it raises OSError when the file
    is not a loadable object."""

    def __init__(self, path: str):
        self.path = path
        self._lib = lib = ctypes.CDLL(path)
        lib.draw.argtypes = (c_void_p, c_void_p, c_void_p, c_int64, c_double, c_int64,
                             POINTER(c_uint64), c_int64, c_int64, c_int64, POINTER(c_int32), _OUT)
        lib.draw.restype = c_int64
        lib.dp_sum.argtypes = (c_int64, POINTER(c_uint64), c_int64, c_int64, c_int64, c_double,
                               c_int64, c_int64, c_void_p)
        lib.dp_sum.restype = c_int64

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

    def dp_sum(self, poset: Poset, cap: int, pen, limit: int) -> tuple:
        """As exact._layer_loop, in one C call: (0, the sum), or (p, the
        ideals held) when layer p passes limit."""
        n = poset.n
        rows, w = _rows(poset)
        real = not isinstance(pen, int)
        # words for L <= n!; an array, as a ctypes array type made per call
        # leaves a reference cycle
        out = array("Q", bytes(8 * (math.factorial(n).bit_length() // 64 + 1)))
        # a cap of n or more bands nothing, and min keeps p + cap + 1 in int64
        layer = self._lib.dp_sum(n, rows, w, min(cap, n), real, pen, limit, len(out),
                                 out.buffer_info()[0])
        if layer < 0:
            raise MemoryError("no memory for the ideal DP")
        if layer:
            return layer, out[0]
        if real:
            return 0, array("d", out[:1].tobytes())[0]
        if sys.byteorder == "big":  # native words, the least significant first
            out.byteswap()
        return 0, int.from_bytes(out, "little")


KERNEL = build()  # the C loops, or None to run the Python ones
