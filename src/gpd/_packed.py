"""Packed exponent keys: the storage and bulk arithmetic under every polynomial.

An exponent vector (A, B, x1..xm, y1..yn) is packed into one integer key,
each slot given a bit width.  Slot 0 takes the most significant bits, so
ascending keys list exponent vectors in ascending lexicographic order,
whatever the widths: re-keying into another layout with the same slots
keeps the key order and needs no sort.  Keys are int32 when the layout fits
in 31 bits, int64 in 63 and Python ints (``dtype=object``) beyond.
Coefficients take the narrowest of int32, int64 and Python ints that an
L1-norm bound (an upper bound for every intermediate coefficient) certifies
(``coeff_dtype``); numpy promotes fixed-width operands to Python ints when
an object array meets them.  Either way the arithmetic is exact and the
code path is the same.

Memory contract: a pass over a whole polynomial holds at most
``_MERGE_CHUNK`` terms of transient arrays besides its inputs and its
output, while a merge's products come in at most ``_MERGE_RUNS`` sorted
runs.  A re-key of more keys goes one chunk at a time.  A merge of more
input terms goes one key range at a time (``_merge_ranges``): it counts
each range's distinct keys first, then merges every range into one output
allocated once at that size, so it holds its output once.  A merge of more
runs writes its whole input into one buffer, as a small merge does.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

INT32_HEADROOM = 2**31 - 1
INT64_HEADROOM = 2**62

# Input terms above which merge_products merges one key range at a time, and
# keys per chunk of a large re-key: the transient arrays of either pass.
_MERGE_CHUNK = 1 << 16
# Most runs (factor terms, summed over the pieces) of a merge by key range.
# A range costs three ufunc calls per run, about 6 * runs / _MERGE_CHUNK calls
# per input term: 3/128 at this bound.  A merge of more runs keeps one buffer.
_MERGE_RUNS = _MERGE_CHUNK >> 8


def coeff_dtype(bound: int):
    """int32 or int64 while ``bound``, capping every coefficient sum, is
    below its headroom (read at call time), Python ints otherwise."""
    if bound >= INT64_HEADROOM:
        return object
    return np.int32 if bound < INT32_HEADROOM else np.int64


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
        self.key_dtype = np.int32 if total <= 31 else np.int64 if total <= 63 else object

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
        """Keys of exponent vectors that fit this layout (0 in empty slots,
        whose shift may be the key dtype's width less its sign bit)."""
        exps = np.array(rows, dtype=self.key_dtype).reshape(len(rows), len(self.widths))
        units = [1 << s if w else 0 for s, w in zip(self.shifts, self.widths)]
        return exps @ np.array(units, dtype=self.key_dtype)

    def rekey(self, keys: np.ndarray, dst: "Packer") -> np.ndarray:
        """The same exponent vectors as keys of ``dst``, which must hold
        them, moved in the wider of the two key dtypes."""
        if dst is self:
            return keys
        if len(keys) > _MERGE_CHUNK:
            out = np.empty(len(keys), dtype=dst.key_dtype)
            for start in range(0, len(keys), _MERGE_CHUNK):
                out[start:start + _MERGE_CHUNK] = self.rekey(keys[start:start + _MERGE_CHUNK], dst)
            return out
        keys = keys.astype(_wider(self.key_dtype, dst.key_dtype), copy=False)
        # one (bit mask, shift up) per run of adjacent live slots that move
        # by the same shift: one mask and one shift each
        moves: list[list[int]] = []
        for k, w in enumerate(self.widths):
            if w:
                bits, up = self.masks[k] << self.shifts[k], dst.shifts[k] - self.shifts[k]
                if moves and moves[-1][1] == up:
                    moves[-1][0] |= bits
                else:
                    moves.append([bits, up])
        out = np.zeros(len(keys), dtype=keys.dtype)
        for mask, up in moves:
            part = keys & mask
            out |= part << up if up >= 0 else part >> -up
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


def _wider(a, b):
    """The wider of two key dtypes, which widen int32, int64, object."""
    return a if a is b or a is object or b is np.int32 else b


@lru_cache(maxsize=4096)
def layout(widths: tuple[int, ...]) -> Packer:
    """The shared layout with these slot widths."""
    return Packer(widths)


def merge(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine duplicate keys, drop zero coefficients; keys come out ascending.

    The merge owns its arguments: it drops each array once the next is
    made, so a buffer no caller holds is freed as it goes.  Ascending keys
    skip the sort, distinct keys the sum, nonzero coefficients the filter.
    Sums stay in the coefficients' dtype.
    """
    # `<=`, not `>`: in NumPy 2.4 the int32 `>` loop lies outside the code
    # pages the other comparisons load, and costs a small command 64 KB RSS
    if (keys[1:] <= keys[:-1]).any():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        coeffs = coeffs[order]
        del order
        starts = keys[1:] != keys[:-1]
        if not starts.all():
            starts = np.flatnonzero(np.concatenate(([True], starts)))
            keys = keys[starts]
            coeffs = np.add.reduceat(coeffs, starts, dtype=coeffs.dtype)
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
    Above ``_MERGE_CHUNK`` input terms in at most ``_MERGE_RUNS`` runs
    (one per factor term) the merge goes by key range.
    """
    if len(pieces) == 1:
        keys, coeffs, factor = pieces[0][:3]
        if factor is None:
            return keys, coeffs.astype(dtype, copy=False)
        if len(factor[0]) == 1:
            return keys + int(factor[0][0]), np.multiply(coeffs, int(factor[1][0]), dtype=dtype)
        # no reference held here, so the merge frees the piece as it reads it
        del keys, coeffs
    runs = [1 if p[2] is None else len(p[2][0]) for p in pieces]
    if sum(len(p[0]) * r for p, r in zip(pieces, runs)) > _MERGE_CHUNK and sum(runs) <= _MERGE_RUNS:
        return _merge_ranges(pieces, dtype)
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


def _merge_ranges(pieces: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``merge_products`` one key range at a time, for more than
    ``_MERGE_CHUNK`` input terms in at most ``_MERGE_RUNS`` runs.

    The products are sorted runs: a piece's keys plus one factor term's key
    each.  Range bounds are taken from a sorted sample of the runs, every
    ``step``-th key of each, so a range holds fewer than ``_MERGE_CHUNK``
    input terms while there are at most ``_MERGE_CHUNK // 8`` runs.  The
    ranges are disjoint, so no duplicate key straddles two.  A piece finds
    every run's start in every range with one ``searchsorted``.  A first
    pass writes each range's keys, run by run, sorts them and counts the
    distinct ones; their sum bounds the output, which cancellation only
    shrinks.  So the output is allocated once.  Then a range writes each
    run's slice of keys and coefficients, shifted and scaled, and merges
    them into the output at a running offset; a cancelled tail is cut off
    in place.  That is three ufunc calls per run and range.
    ``poly.product`` keeps the runs few: it multiplies the longest factor
    first, so the runs are the shorter factor's terms.
    """
    one = np.zeros(1, dtype=pieces[0][0].dtype), np.ones(1, dtype=dtype)
    runs = [(p[0], p[1], *(one if p[2] is None else p[2])) for p in pieces]
    step = max(1, _MERGE_CHUNK // (8 * sum(len(shifts) for _, _, shifts, _ in runs)))
    sample = np.sort(np.concatenate(
        [(keys[::step] + shifts[:, None]).ravel() for keys, _, shifts, _ in runs]))
    every = max(1, _MERGE_CHUNK // (2 * step))
    bounds = sample[every::every]
    # one ((keys, coeffs), (key shift, scale), starts) per run; starts[r] is
    # the first index at or past range r's lower bound, the last the length
    flat = [
        ((keys, values), (shifts[k], scales[k]), [0, *row, len(keys)])
        for keys, values, shifts, scales in runs
        for k, row in enumerate(np.searchsorted(keys, bounds - shifts[:, None]).tolist())
    ]
    dtypes, ranges = (pieces[0][0].dtype, dtype), range(len(bounds) + 1)

    def products(r: int, col: int) -> np.ndarray:
        """Range r's product keys (``col`` 0) or coefficients (1), run by run."""
        out = np.empty(sum(s[r + 1] - s[r] for *_, s in flat), dtype=dtypes[col])
        op, at = (np.add, np.multiply)[col], 0
        for arrays, factor, s in flat:
            lo, hi = s[r], s[r + 1]
            op(arrays[col][lo:hi], factor[col], out=out[at : at + hi - lo], dtype=dtypes[col])
            at += hi - lo
        return out

    size = 0
    for r in ranges:
        keys = products(r, 0)
        keys.sort(kind="stable")
        size += int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)
    out_keys, out_coeffs = np.empty(size, dtype=dtypes[0]), np.empty(size, dtype=dtype)
    at = 0
    for r in ranges:
        keys, coeffs = merge(products(r, 0), products(r, 1))
        out_keys[at : at + len(keys)] = keys
        out_coeffs[at : at + len(keys)] = coeffs
        at += len(keys)
    if at < size:
        out_keys.resize(at, refcheck=False)
        out_coeffs.resize(at, refcheck=False)
    return out_keys, out_coeffs
