"""Tuple-dict reference arithmetic, the oracle for the packed ``Polynomial``.

A polynomial here is a dict from exponent tuples (A, B, x1..xm, y1..yn) to
nonzero Python ints, and every operation is a plain loop over its terms.
Variables are named by slot: x_i is slot 1 + i.
"""

from __future__ import annotations

import numpy as np

Terms = dict[tuple[int, ...], int]


def terms(p) -> Terms:
    """The terms of a ``Polynomial`` as a reference dict."""
    return dict(p.items())


def is_homogeneous(p, degree: int | None = None) -> bool:
    """Whether every term of a ``Polynomial`` has one total degree, and that
    degree is ``degree`` when given; the zero polynomial is homogeneous."""
    degrees = {sum(exps) for exps, _ in p.items()}
    return not degrees or (len(degrees) == 1 and degree in (None, *degrees))


def canonical_order(p) -> np.ndarray:
    """Term indices of a ``Polynomial`` in canonical order by one stable
    argsort: its keys read backwards, sorted by descending total degree."""
    backwards = -np.array([sum(exps) for exps, _ in p.items()], dtype=object)[::-1]
    return len(backwards) - 1 - np.argsort(backwards, kind="stable")


def _collect(pairs) -> Terms:
    out: Terms = {}
    for exps, coeff in pairs:
        out[exps] = out.get(exps, 0) + coeff
    return {e: c for e, c in out.items() if c}


def add(f: Terms, g: Terms) -> Terms:
    return _collect([*f.items(), *g.items()])


def sub(f: Terms, g: Terms) -> Terms:
    return _collect([*f.items(), *((e, -c) for e, c in g.items())])


def mul(f: Terms, g: Terms) -> Terms:
    return _collect(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.items()
        for e2, c2 in g.items()
    )


def power(f: Terms, k: int, width: int) -> Terms:
    out = {(0,) * width: 1}
    for _ in range(k):
        out = mul(out, f)
    return out


def relabel(f: Terms, dst: list[int], negate: set[int], width: int) -> Terms:
    """Slot k moves to slot dst[k]; terms odd in the slots of ``negate`` change sign."""
    out = []
    for exps, coeff in f.items():
        new = [0] * width
        for k, e in enumerate(exps):
            if e:
                new[dst[k]] = e
                if k in negate and e % 2:
                    coeff = -coeff
        out.append((tuple(new), coeff))
    return _collect(out)


def swap_x(f: Terms, i: int, width: int) -> Terms:
    dst = list(range(width))
    dst[1 + i], dst[2 + i] = 2 + i, 1 + i
    return relabel(f, dst, set(), width)


def divmod_x_diff(f: Terms, i: int) -> tuple[Terms, Terms]:
    """Synthetic division by x_i - x_{i+1}, viewing f as univariate in x_i.

    With f = sum_k c_k x_i^k, the quotient coefficients descend as
    q_{k-1} = c_k + x_{i+1} q_k and the remainder is c_0 + x_{i+1} q_0.
    """
    a, b = 1 + i, 2 + i
    by_deg: dict[int, Terms] = {}
    for exps, coeff in f.items():
        rest = list(exps)
        rest[a] = 0
        by_deg.setdefault(exps[a], {})[tuple(rest)] = coeff
    quot: Terms = {}
    carry: Terms = {}
    for k in range(max(by_deg, default=0), 0, -1):
        level = add(carry, by_deg.get(k, {}))
        for exps, coeff in level.items():
            quot[exps[:a] + (k - 1,) + exps[a + 1 :]] = coeff
        carry = {exps[:b] + (exps[b] + 1,) + exps[b + 1 :]: c for exps, c in level.items()}
    return quot, add(carry, by_deg.get(0, {}))


def leading_form(f: Terms, slot: int) -> tuple[int, Terms]:
    d = max(exps[slot] for exps in f)
    return d, {
        exps[:slot] + (0,) + exps[slot + 1 :]: c for exps, c in f.items() if exps[slot] == d
    }


def in_context(f: Terms, m: int, n: int, m2: int, n2: int) -> Terms:
    """Same variables in context (m2, n2); raises KeyError if one does not fit."""
    out = {}
    for exps, coeff in f.items():
        new = [0] * (2 + m2 + n2)
        new[:2] = exps[:2]
        for p in range(m):
            if exps[2 + p]:
                if p >= m2:
                    raise KeyError(f"x{p + 1}")
                new[2 + p] = exps[2 + p]
        for j in range(n):
            if exps[2 + m + j]:
                if j >= n2:
                    raise KeyError(f"y{j + 1}")
                new[2 + m2 + j] = exps[2 + m + j]
        out[tuple(new)] = coeff
    return out
