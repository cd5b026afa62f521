"""Working memory that the Monte Carlo blocks reuse from one block to the next.

:class:`BlockBuffers` holds each worker thread's full-size block arrays.
:class:`Scratch` hands out the temporaries of one step as consecutive
views of a single flat buffer, so that a step whose buffer is reused
allocates nothing of its size; without a buffer the same step takes new
arrays and computes the same values.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["BlockBuffers", "Scratch", "SCRATCH_SLACK"]

#: bytes a scratch buffer needs on top of its arrays' own: every array
#: starts on an 8-byte boundary, so each of up to 16 carved arrays may
#: leave up to 7 bytes unused ahead of the next
SCRATCH_SLACK = 128


class BlockBuffers(threading.local):
    """The full-size arrays of the Monte Carlo blocks, one set per thread.

    A run makes one set for its call and hands it to every block, RSM
    (``simulate._run_block``) or fully digital (``baseline.fd_ber``); each
    worker thread keeps its own arrays and reuses them on every block, so
    a block past the thread's first allocates no array of its size unless
    its shape grows.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """The thread's ``name`` array as ``shape``: the leading rows of the
        array it holds when that has as many rows or more and the same
        trailing shape and dtype, else a new one that replaces it."""
        array = self.arrays.get(name)
        fits = array is not None and array.dtype == dtype and array.shape[1:] == shape[1:]
        if not (fits and len(array) >= shape[0]):
            array = self.arrays[name] = np.empty(shape, dtype)
        return array[: shape[0]]


class Scratch:
    """Arrays carved one after another from the front of one buffer.

    ``buffer`` is a C-contiguous array of any dtype, used as flat bytes;
    each array :meth:`take` hands out starts on an 8-byte boundary, and a
    buffer too small for it raises ValueError. With no buffer every array
    is a new one.
    """

    def __init__(self, buffer: np.ndarray | None = None):
        if buffer is not None and not buffer.flags.c_contiguous:
            raise ValueError("a scratch buffer must be C-contiguous")
        self._free = None if buffer is None else buffer.reshape(-1).view(np.uint8)

    def take(self, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """The next array of ``shape`` and ``dtype``; its values are undefined."""
        if self._free is None:
            return np.empty(shape, dtype)
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size > self._free.size:
            raise ValueError(f"scratch too small: {size} bytes wanted, {self._free.size} left")
        array = self._free[:size].view(dtype).reshape(shape)
        self._free = self._free[-(-size // 8) * 8 :]
        return array

    def rest(self) -> np.ndarray | None:
        """The part of the buffer no array has taken yet (None without a
        buffer), to hand to a step that carves its own temporaries."""
        return self._free
