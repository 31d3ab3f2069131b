"""Packed exponent keys: the storage and bulk arithmetic under every polynomial.

An exponent vector (A, B, x1..xm, y1..yn) is packed into one integer key,
each slot given a bit width.  Slot 0 takes the most significant bits, so
ascending keys list exponent vectors in ascending lexicographic order,
whatever the widths: re-keying into another layout with the same slots
keeps the key order and needs no sort.  Keys are int64 when the layout fits
in 63 bits and Python ints (``dtype=object``) otherwise.  Coefficients are
int64 while an L1-norm bound (an upper bound for every intermediate
coefficient) stays below ``INT64_HEADROOM``, and Python ints beyond it;
numpy promotes int64 operands to Python ints when an object array meets
them.  Either way the arithmetic is exact and the code path is the same.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

INT64_HEADROOM = 2**62


def coeff_dtype(bound: int):
    """int64 when ``bound`` caps every coefficient sum, Python ints otherwise."""
    return np.int64 if bound < INT64_HEADROOM else object


def l1(coeffs: np.ndarray) -> int:
    """Sum of absolute coefficients, as a Python int."""
    return int(np.abs(coeffs).sum())


class Packer:
    """Bit layout of exponent vectors: slot k holds ``widths[k]`` bits.

    Layouts are shared: build them with ``layout``, ``Packer.fitting`` or
    ``Packer.alphabet``, so equal widths give the same object.
    """

    def __init__(self, widths: tuple[int, ...]):
        self.widths = widths
        total = sum(widths)
        self.shifts = [total - c for c in accumulate(widths)]
        self.masks = [(1 << w) - 1 for w in widths]
        self.key_dtype = np.int64 if total <= 63 else object

    def __reduce__(self):
        """Unpickled layouts are the shared ones."""
        return layout, (self.widths,)

    @classmethod
    def fitting(cls, bounds: Iterable[int]) -> "Packer":
        """The layout in which slot k holds exponents 0..bounds[k]."""
        return layout(tuple(int(b).bit_length() for b in bounds))

    @classmethod
    def alphabet(cls, m: int, n: int) -> "Packer":
        """A, B up to degree mn, each x_p up to n, each y_j up to m."""
        return cls.fitting([m * n, m * n] + [n] * m + [m] * n)

    def unit(self, slot: int) -> int:
        """Key of the exponent vector with a single 1 in ``slot``."""
        return 1 << self.shifts[slot]

    def field(self, keys: np.ndarray, slot: int) -> np.ndarray:
        """Exponents of one slot, in the dtype of the keys."""
        return (keys >> self.shifts[slot]) & self.masks[slot]

    def fields(self, keys: np.ndarray) -> list[list[int]]:
        """Exponents of every slot, one Python list per slot."""
        return [self.field(keys, k).tolist() for k in range(len(self.widths))]

    def encode(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """Keys of exponent vectors that fit this layout."""
        exps = np.array(rows, dtype=self.key_dtype).reshape(len(rows), len(self.widths))
        return exps @ np.array([1 << s for s in self.shifts], dtype=self.key_dtype)

    def rekey(self, keys: np.ndarray, dst: "Packer") -> np.ndarray:
        """The same exponent vectors as keys of ``dst``, which must hold them."""
        if dst is self:
            return keys
        if dst.key_dtype is object:
            keys = keys.astype(object)
        out = np.zeros(len(keys), dtype=keys.dtype)
        for k, w in enumerate(self.widths):
            if w:
                src, to = self.shifts[k], dst.shifts[k]
                part = keys & (self.masks[k] << src)
                out |= part << (to - src) if to >= src else part >> (src - to)
        return out.astype(dst.key_dtype, copy=False)

    def tight(self, keys: np.ndarray) -> "Packer":
        """The layout whose widths are the keys' own per-slot maximum widths.

        The widest value of a slot has the bit length of the slot's OR over
        all keys, so one reduction finds every width.
        """
        ored = int(np.bitwise_or.reduce(keys)) if len(keys) else 0
        return layout(
            tuple(((ored >> s) & mk).bit_length() for s, mk in zip(self.shifts, self.masks))
        )


@lru_cache(maxsize=4096)
def layout(widths: tuple[int, ...]) -> Packer:
    """The shared layout with these slot widths."""
    return Packer(widths)


def merge(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine duplicate keys, drop zero coefficients; keys come out ascending.

    The merge owns its arguments: it drops each array once the next is
    made, so a buffer no caller holds is freed as it goes.  Ascending keys
    skip the sort, distinct keys the sum, nonzero coefficients the filter.
    """
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        coeffs = coeffs[order]
        del order
        starts = keys[1:] != keys[:-1]
        if not starts.all():
            starts = np.flatnonzero(np.concatenate(([True], starts)))
            keys = keys[starts]
            coeffs = np.add.reduceat(coeffs, starts)
    keep = coeffs != 0
    if not keep.all():
        keys, coeffs = keys[keep], coeffs[keep]
    return keys, coeffs


def merge_products(pieces: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the pieces' products, merged once.

    A piece (keys, coeffs, factor, ...) is a merged packed polynomial times
    ``factor``, a packed (keys, coeffs) pair or None for 1, in a layout that
    holds the product.  Ufuncs write the products into one buffer with
    ``dtype`` coefficients, dropping each piece from ``pieces``; ``merge``
    gets the only reference to it, so it owns and frees it.  A lone piece
    with no factor is the sum as it is; times a monomial, its keys shift
    and its coefficients scale, still ascending, distinct and nonzero.
    """
    if len(pieces) == 1:
        keys, coeffs, factor = pieces[0][:3]
        coeffs = coeffs.astype(dtype, copy=False)
        if factor is None:
            return keys, coeffs
        if len(factor[0]) == 1:
            return keys + int(factor[0][0]), coeffs * int(factor[1][0])
    return merge(_column(pieces, 0, pieces[0][0].dtype), _column(pieces, 1, dtype))


def _column(pieces: list, col: int, dtype) -> np.ndarray:
    """The products' keys (``col`` 0) or coefficients (1), piece by piece, a
    factor term's run at a time; the coefficients drop each piece they read."""
    sizes = [len(p[0]) * (1 if p[2] is None else len(p[2][0])) for p in pieces]
    out = np.empty(sum(sizes), dtype=dtype)
    op = np.multiply if col else np.add
    for k, end in enumerate(accumulate(sizes)):
        values, factor = pieces[k][col], pieces[k][2]
        if col:
            pieces[k] = None
        run = out[end - sizes[k] : end]
        if factor is None:
            run[:] = values
        else:
            op(factor[col][:, None], values, out=run.reshape(len(factor[col]), -1), dtype=dtype)
    return out
