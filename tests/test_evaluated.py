"""G at A = y1 = 0 against the full alphabet.

The recurrence, leading-form and mirror checks compare G(pi) evaluated at a
point: A = y1 = 0, and B = yn = 0 for the mirror's second sweep.  Each
evaluated quantity is compared here with its full-alphabet value with the
same variables set to 0, over every small shape, and the identities that
make the evaluated checks exact (translation invariance of double Schubert
polynomials, the mirror taking one point to the other) are checked on the
full polynomials.  Mutations of the recurrence and of the mirror show that
the evaluated checks still catch what the full-alphabet comparisons catch.
"""

import pytest

from gpd import schubert
from gpd.poly import Var, alphabet
from gpd.schubert import (
    ORIGIN,
    all_hybridizations,
    all_partial_perms,
    double_schubert_oracle,
    min_extension,
    mirror_substitution,
    recurrence_table,
    reduced_weight_sums,
    shift_x_by_a,
    weight_sums_by_pi,
)
from gpd.verify import run_checks

from conftest import SMALL_SHAPES

A, B, Y1 = Var("A"), Var("B"), Var("y", 1)


def at_zero(table, zero):
    return {pi: g.at_zero(*zero) for pi, g in table.items()}


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_evaluated_recurrence_table_is_the_full_table_at_the_origin(m, n):
    assert recurrence_table(m, n, zero=ORIGIN) == at_zero(recurrence_table(m, n), ORIGIN)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_sums_at_b_yn_zero_are_the_full_sums_there(m, n):
    zero = (B, Var("y", n))
    for beta in all_hybridizations(m):
        full = weight_sums_by_pi(m, n, beta)
        assert reduced_weight_sums(m, n, beta, zero=zero) == at_zero(full, zero), beta


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_shifted_oracle_at_the_origin_is_the_oracle_at_y1_zero(m, n):
    # S(A + x; y) = S(A + x - y1; y - y1) by translation invariance, a
    # polynomial in A + x_p - y1 and y1 - y_j, on which A = y1 = 0 is injective
    a, _, xs, ys = alphabet(m, n)
    translated = {Var("x", i): a + xs[i - 1] - ys[0] for i in range(1, m + 1)}
    translated.update({Var("y", j): ys[j - 1] - ys[0] for j in range(1, n + 1)})
    for pi in all_partial_perms(m, n):
        oracle = double_schubert_oracle(min_extension(pi, n), m, n)
        shifted = shift_x_by_a(oracle)
        assert shifted == oracle.substitute(translated), pi
        assert shifted.at_zero(A, Y1) == oracle.at_zero(Y1), pi


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_evaluation_keeps_the_b_leading_form(m, n):
    full = weight_sums_by_pi(m, n, "W" * m)
    reduced = reduced_weight_sums(m, n, "W" * m)
    for pi, g in full.items():
        deg, coeff = g.leading_form(B)
        assert reduced[pi].leading_form(B) == (deg, coeff.at_zero(*ORIGIN)), pi


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_mirror_takes_the_origin_to_b_yn_zero(m, n):
    full = weight_sums_by_pi(m, n, "W" * m)
    for g in full.values():
        assert mirror_substitution(g).at_zero(*ORIGIN) == mirror_substitution(
            g.at_zero(B, Var("y", n))
        )


def _flipped_step(g, i, *zero):
    """recurrence_step with x_i - x_{i+1} sign-flipped in its factor
    A+B+x_i-x_{i+1}; the numerator stays divisible, so only the value is wrong."""
    a, b, xs, _ = alphabet(g.m, g.n)
    ab = (a + b).at_zero(*zero)
    num = ab * g - (ab - xs[i - 1] + xs[i]) * g.swap_x(i)
    quotient, remainder = num._divmod_x_diff(i)
    assert not remainder
    return quotient


def test_a_flipped_recurrence_factor_fails_both_comparisons(monkeypatch):
    monkeypatch.setattr(schubert, "recurrence_step", _flipped_step)
    assert recurrence_table(3, 3) != weight_sums_by_pi(3, 3, "WWW")
    report = run_checks(["recurrence"], 3, 3)[0]
    assert not report.ok
    assert "pi=(1, 2, 3): recurrence disagrees with enumeration" in report.failures


def test_mirroring_against_pi_itself_fails_the_mirror_check(monkeypatch):
    monkeypatch.setattr(schubert, "gamma_conjugate", lambda pi, m, n: tuple(pi))
    report = run_checks(["mirror"], 2, 3)[0]
    assert not report.ok
    assert "pi=(1, 2): mirror identity fails against (1, 2)" in report.failures
