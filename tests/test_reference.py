"""Every packed Polynomial operation against the tuple-dict reference model.

Random polynomials over the small shapes and (2,30), whose dense values
take Python-int keys; coefficients past 2**63; (A+B)**64; and an int64
headroom lowered so that operations on int32 operands promote their
results to Python ints.
"""

import random

import numpy as np
import pytest

import refpoly
from gpd import _packed, schubert
from gpd.poly import ContextMismatchError, Polynomial, Var, alphabet, slot_var, var_slot

from conftest import random_poly

SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (2, 30)]


def _random(rng: random.Random, m: int, n: int) -> Polynomial:
    big = rng.random() < 0.3
    f = random_poly(rng, m, n, max_terms=6, max_deg=4, max_coeff=2**70 if big else 9)
    if n == 30 and rng.random() < 0.5:
        # degree 2 in every variable: 34 slots of 2 bits, so Python-int keys
        f = f + Polynomial(m, n, {(2,) * (2 + m + n): rng.choice((1, -3))})
    return f


def assert_canonical(p: Polynomial) -> None:
    """Keys strictly ascending in the value's own widths, in the key dtype
    of their width, no zero coefficient, int32 and int64 coefficients only
    under their headrooms."""
    keys = p.keys.tolist()
    assert keys == sorted(set(keys))
    assert all(p.coeffs != 0)
    exps = [e for e, _ in p.items()]
    widths = tuple(max(col).bit_length() for col in zip(*exps)) if exps else (0,) * (2 + p.m + p.n)
    assert p.packer.widths == widths
    bits = sum(widths)
    assert p.keys.dtype == (np.int32 if bits <= 31 else np.int64 if bits <= 63 else object)
    if p.coeffs.dtype == np.int32:
        assert p.l1_norm() < _packed.INT32_HEADROOM
    if p.coeffs.dtype != object:
        assert p.l1_norm() < _packed.INT64_HEADROOM
    rebuilt = Polynomial(p.m, p.n, dict(p.items()))
    assert rebuilt == p and np.array_equal(rebuilt.keys, p.keys)


def check_ops(f: Polynomial, g: Polynomial) -> None:
    m, n = f.m, f.n
    width = 2 + m + n
    tf, tg = refpoly.terms(f), refpoly.terms(g)
    results = [
        (f + g, refpoly.add(tf, tg)),
        (f - g, refpoly.sub(tf, tg)),
        (f * g, refpoly.mul(tf, tg)),
        (f**2, refpoly.power(tf, 2, width)),
        (-3 * f, {e: -3 * c for e, c in tf.items()}),
    ]
    for i in range(1, m):
        results.append((f.swap_x(i), refpoly.swap_x(tf, i, width)))
        quot, rem = f._divmod_x_diff(i)
        ref_quot, ref_rem = refpoly.divmod_x_diff(tf, i)
        results += [(quot, ref_quot), (rem, ref_rem)]
        num = refpoly.sub(tf, refpoly.swap_x(tf, i, width))
        results.append((f.divided_difference(i), refpoly.divmod_x_diff(num, i)[0]))
    mirror = schubert.mirror_substitution(f)
    dst = [var_slot(Var(*_mirrored(slot_var(k, m, n), m, n)), m, n) for k in range(width)]
    results.append((mirror, refpoly.relabel(tf, dst, set(range(2, width)), width)))
    if f:
        for slot in range(width):
            deg, coeff = f.leading_form(slot_var(slot, m, n))
            ref_deg, ref_coeff = refpoly.leading_form(tf, slot)
            assert deg == ref_deg
            results.append((coeff, ref_coeff))
    wide = f.in_context(m + 1, n + 1)
    results += [(wide, refpoly.in_context(tf, m, n, m + 1, n + 1)), (wide.in_context(m, n), tf)]
    for p, expected in results:
        assert refpoly.terms(p) == expected
        assert_canonical(p)


def _mirrored(v: Var, m: int, n: int) -> tuple:
    if v.kind in "AB":
        return ("B" if v.kind == "A" else "A",)
    return (v.kind, (m if v.kind == "x" else n) + 1 - v.index)


@pytest.mark.parametrize("m, n", SHAPES)
def test_operations_match_reference(m, n):
    rng = random.Random(f"reference {m} {n}")
    for _ in range(25):
        check_ops(_random(rng, m, n), _random(rng, m, n))


def test_binomial_power_matches_reference():
    a, b, _, _ = alphabet(2, 2)
    big = (a + b) ** 64
    ref = refpoly.power(refpoly.terms(a + b), 64, 6)
    assert refpoly.terms(big) == ref and big.coeffs.dtype == object
    check_ops(big, a - b)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (2, 30)])
def test_lowered_headroom_promotes_inside_operations(monkeypatch, m, n):
    # operands are built in int32 under the real headroom; a headroom just
    # above their norms makes every sum and product certify Python ints
    rng = random.Random(f"headroom {m} {n}")
    pairs = [(random_poly(rng, m, n, 6, 4), random_poly(rng, m, n, 6, 4)) for _ in range(20)]
    pairs = [(f, g) for f, g in pairs if f.l1_norm() > 1 and g.l1_norm() > 1]
    assert all(f.coeffs.dtype == g.coeffs.dtype == np.int32 for f, g in pairs)
    merged = set()
    merge = _packed.merge

    def spy(keys, coeffs):
        merged.add(coeffs.dtype.kind)
        return merge(keys, coeffs)

    monkeypatch.setattr(_packed, "merge", spy)
    for f, g in pairs:
        monkeypatch.setattr(_packed, "INT64_HEADROOM", max(f.l1_norm(), g.l1_norm()) + 1)
        for p in (f + g, f * g):
            assert p.coeffs.dtype == object
        check_ops(f, g)
    assert merged == {"i", "O"}


def test_context_mismatch_in_every_combination():
    f, g = Polynomial.const(1, 1, 2), Polynomial.const(1, 2, 1)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: g.divide_exact(f)):
        with pytest.raises(ContextMismatchError):
            op()
    with pytest.raises(ContextMismatchError):
        Polynomial(2, 2, {(0, 0, 0, 1, 0, 0): 1}).in_context(1, 2)
