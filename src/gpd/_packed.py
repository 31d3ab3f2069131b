"""Packed numpy backend for exact polynomial products and sums.

Exponent vectors are packed into integer keys, each slot given just the
bits its degree bound needs, so numpy can add exponent vectors and merge
duplicate monomials in bulk.  Keys are int64 when the layout fits in 63
bits and Python ints (``dtype=object``) otherwise.  Coefficients are int64
while an L1-norm bound (an upper bound for every intermediate coefficient)
stays below ``INT64_HEADROOM``, and Python ints beyond it; numpy promotes
int64 operands to Python ints when an object array meets them.  Either
way the arithmetic is exact and the code path is the same.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

import numpy as np

from .poly import Polynomial

INT64_HEADROOM = 2**62


def coeff_dtype(bound: int):
    """int64 when ``bound`` caps every coefficient sum, Python ints otherwise."""
    return np.int64 if bound < INT64_HEADROOM else object


class Packer:
    """Bit layout of exponent vectors: slot k holds exponents 0..bounds[k].

    ``m`` and ``n`` name the context ``unpack`` returns polynomials in; the
    full-alphabet layout is ``Packer.alphabet(m, n)``.
    """

    def __init__(self, m: int, n: int, bounds: Iterable[int]):
        widths = [b.bit_length() for b in bounds]
        self.m, self.n = m, n
        self.shifts = [0, *accumulate(widths)][:-1]
        self.key_dtype = np.int64 if sum(widths) <= 63 else object
        self._masks = [(1 << w) - 1 for w in widths]
        self._place = np.array([1 << s for s in self.shifts], dtype=self.key_dtype)

    @classmethod
    def alphabet(cls, m: int, n: int) -> "Packer":
        """A, B up to degree mn, each x_p up to n, each y_j up to m."""
        return cls(m, n, [m * n, m * n] + [n] * m + [m] * n)

    def pack_poly(self, p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
        items = list(p.items())
        exps = np.array([e for e, _ in items], dtype=self.key_dtype)
        coeffs = [c for _, c in items]
        keys = exps.reshape(len(items), len(self.shifts)) @ self._place
        return keys, np.array(coeffs, dtype=coeff_dtype(sum(map(abs, coeffs))))

    def unpack(self, keys: np.ndarray, coeffs: np.ndarray) -> Polynomial:
        cols = [((keys >> s) & mask).tolist() for s, mask in zip(self.shifts, self._masks)]
        terms = dict(zip(zip(*cols), coeffs.tolist()))
        return Polynomial._raw(self.m, self.n, terms)


def merge(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine duplicate keys and drop zero coefficients."""
    if len(keys) == 0:
        return keys, coeffs
    order = np.argsort(keys, kind="stable")
    sk, sc = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    uk = sk[starts]
    uc = np.add.reduceat(sc, starts)
    keep = uc != 0
    return uk[keep], uc[keep]


def mul_factor(keys, coeffs, fk, fc):
    nk = (keys[:, None] + fk[None, :]).ravel()
    nc = (coeffs[:, None] * fc[None, :]).ravel()
    return merge(nk, nc)


def product(m: int, n: int, factors: Iterable[Polynomial]) -> Polynomial:
    """Exact product of polynomials in context (m, n)."""
    fs = list(factors)
    bounds = [0] * (2 + m + n)
    l1 = 1
    for f in fs:
        for k, col in enumerate(zip(*(e for e, _ in f.items()))):
            bounds[k] += max(col)
        l1 *= max(1, f.l1_norm())
    packer = Packer(m, n, bounds)
    keys = np.zeros(1, dtype=packer.key_dtype)
    coeffs = np.ones(1, dtype=coeff_dtype(l1))
    for f in fs:
        keys, coeffs = mul_factor(keys, coeffs, *packer.pack_poly(f))
    return packer.unpack(keys, coeffs)
