import random

import numpy as np
import pytest

from gpd import _packed, grid, schubert
from gpd.poly import ExactDivisionError, Polynomial, Var, alphabet, parse
from gpd.schubert import (
    all_hybridizations,
    all_partial_perms,
    b_leading_check,
    base_case,
    check_partial_perm,
    class_of_e,
    compute_by_recurrence,
    double_schubert_oracle,
    gamma_conjugate,
    generic_polynomial,
    inverse_step,
    inversions,
    min_extension,
    mirror_check,
    mirror_failures,
    mirror_substitution,
    recurrence_step,
    recurrence_table,
    reduced_weight_sums,
    schubert_sum,
    shift_x_by_a,
    weight_sums_by_pi,
    _divide_x_diff,
    _recurrence_packer,
    _weight_sums_exact,
)

from conftest import random_poly



def product(m, n, texts):
    out = Polynomial.const(1, m, n)
    for t in texts:
        out = out * parse(t, m, n)
    return out


def g312_displayed():
    quad = parse(
        "A^2+A*B+A*x2-A*y1+B^2-B*x3+B*y2+x2*x3-x2*y1-x3*y2+y1*y2", 3, 3
    )
    return quad * product(
        3, 3, ["B-x3+y3", "B-x2+y3", "A+x1-y2", "A+x1-y1"]
    ) * parse("A+B", 3, 3) ** 3


def test_g312_matches_displayed_product():
    expected = g312_displayed()
    for beta in ("EWE", "WWW"):
        assert generic_polynomial(3, 3, beta, (3, 1, 2)) == expected


def test_g_1x1():
    assert generic_polynomial(1, 1, "W", (1,)) == parse("A + B", 1, 1)


def test_g21_2x2():
    expected = parse("A+B", 2, 2) ** 2 * product(2, 2, ["A+x1-y1", "B-x2+y2"])
    assert generic_polynomial(2, 2, "WW", (2, 1)) == expected
    assert base_case(2, 2, (2, 1)) == expected


def test_g_homogeneous_and_divisible():
    a, b, _, _ = alphabet(2, 3)
    for pi in all_partial_perms(2, 3):
        g = generic_polynomial(2, 3, "WW", pi)
        assert g.is_homogeneous(6)
        assert g.divide_exact((a + b) ** 2) * (a + b) ** 2 == g


def test_fast_engine_matches_exact_sums():
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        for beta in all_hybridizations(m):
            assert weight_sums_by_pi(m, n, beta) == _weight_sums_exact(
                m, n, beta, None
            )


def test_wide_context_matches_exact_sums():
    # 1 x 11 has 15 variables: its keys fit int64 only with narrow y slots
    sums = weight_sums_by_pi(1, 11, "W")
    assert sums == _weight_sums_exact(1, 11, "W", None)
    assert len(sums) == 11


def test_reduced_sums_beta_independent_at_1x12():
    assert reduced_weight_sums(1, 12, "W") == reduced_weight_sums(1, 12, "E")


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_forced_promotion_keeps_results(monkeypatch, m, n):
    # lowering the int64 headroom makes the engine promote its buckets to
    # Python ints after a few dreams, or start in Python ints at all
    beta = "W" * (m - 1) + "E"
    full = weight_sums_by_pi(m, n, beta)
    reduced = reduced_weight_sums(m, n, beta)
    factors = [parse(f"{k}*A - B + x1 - {k}*y{n}", m, n) for k in (2, 3, 5)]
    prod = _packed.product(m, n, factors)
    merged_dtypes = set()
    merge = _packed.merge

    def spy(keys, coeffs):
        merged_dtypes.add(coeffs.dtype.kind)
        return merge(keys, coeffs)

    monkeypatch.setattr(_packed, "merge", spy)
    for headroom, kinds in ((4 * 3 ** (m * n), {"i", "O"}), (2, {"O"})):
        monkeypatch.setattr(_packed, "INT64_HEADROOM", headroom)
        merged_dtypes.clear()
        assert weight_sums_by_pi(m, n, beta) == full
        assert reduced_weight_sums(m, n, beta) == reduced
        assert _packed.product(m, n, factors) == prod
        assert merged_dtypes == kinds


def test_product_beyond_int64_is_exact():
    factors = [parse(f"{10**6 + k}*A - {10**6 - k}*x2 + y3", 2, 3) for k in range(5)]
    expected = Polynomial.const(1, 2, 3)
    for f in factors:
        expected = expected * f
    assert _packed.product(2, 3, factors) == expected
    assert max(abs(c) for _, c in expected.items()) > 2**63


@pytest.mark.parametrize("m, n", [(3, 4), (2, 30)])
def test_packer_round_trip_at_bounds(m, n):
    packer = _packed.Packer.alphabet(m, n)
    bounds = [m * n, m * n] + [n] * m + [m] * n
    assert packer.key_dtype == (object if (m, n) == (2, 30) else np.int64)
    for k, b in enumerate(bounds):
        exps = tuple(b if s == k else 0 for s in range(len(bounds)))
        p = Polynomial(m, n, {exps: -7, tuple(bounds): 3})
        assert packer.unpack(*packer.pack_poly(p)) == p


def test_base_case_examples():
    assert base_case(1, 1, (1,)) == parse("A + B", 1, 1)
    expected = parse("A+B", 2, 3) ** 2 * product(
        2, 3, ["A+x1-y1", "A+x1-y2", "B-x2+y2", "B-x2+y3"]
    )
    assert base_case(2, 3, (3, 1)) == expected
    assert generic_polynomial(2, 3, "WW", (3, 1)) == expected
    with pytest.raises(ValueError):
        base_case(2, 3, (1, 3))


def test_base_case_unique_dream():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]:
        for pi in all_partial_perms(m, n):
            if any(pi[i] <= pi[i + 1] for i in range(m - 1)):
                continue
            for beta in all_hybridizations(m):
                dreams = list(grid.enumerate_dreams(m, n, beta, pi))
                assert len(dreams) == 1, (m, n, beta, pi)
                assert grid.weight(dreams[0]) == base_case(m, n, pi)


def test_recurrence_step_2x2():
    g21 = base_case(2, 2, (2, 1))
    g12 = recurrence_step(g21, 1)
    assert g12 == generic_polynomial(2, 2, "WW", (1, 2))


def test_recurrence_step_and_inverse_are_mutually_inverse():
    g21 = base_case(2, 2, (2, 1))
    g12 = recurrence_step(g21, 1)
    assert inverse_step(g12, 1) == g21
    g312 = generic_polynomial(3, 3, "WWW", (3, 1, 2))
    g321 = generic_polynomial(3, 3, "WWW", (3, 2, 1))
    assert recurrence_step(g321, 2) == g312
    assert inverse_step(g312, 2) == g321


def test_recurrence_chain_3x3():
    sums = weight_sums_by_pi(3, 3, "WWW")
    table = recurrence_table(3, 3)
    for pi, g in table.items():
        assert g == sums[pi], pi


def test_recurrence_table_steps_through_recurrence_step(monkeypatch):
    # each word but the one decreasing base case costs one recurrence_step
    # call, so a wrapper on recurrence_step sees every step the table takes
    calls = []
    step = schubert.recurrence_step

    def spy(g, i, packer=None):
        calls.append(i)
        return step(g, i, packer)

    monkeypatch.setattr(schubert, "recurrence_step", spy)
    assert recurrence_table(3, 3) == weight_sums_by_pi(3, 3, "WWW")
    assert len(calls) == 5


def test_recurrence_path_independence():
    # (1, 2, 3) has two ascents, hence two one-step paths down to it
    via_first = recurrence_step(compute_by_recurrence(3, 3, (2, 1, 3)), 1)
    via_second = recurrence_step(compute_by_recurrence(3, 3, (1, 3, 2)), 2)
    assert via_first == via_second
    assert via_first == generic_polynomial(3, 3, "WWW", (1, 2, 3))


def test_recurrence_step_division_identity():
    # the quotient re-multiplies onto the recurrence numerator exactly
    g = generic_polynomial(2, 3, "WW", (3, 1))
    step = recurrence_step(g, 1)
    a, b, xs, _ = alphabet(2, 3)
    diff = xs[0] - xs[1]
    assert step * diff == (a + b) * g - (a + b + diff) * g.swap_x(1)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 4), (2, 30)])
def test_packed_division_matches_dict_division(m, n):
    # at (2,3) and (3,3) the x slots need more bits than in Packer.alphabet;
    # random degrees up to 5 also push the layout past its G(pi) defaults;
    # (2,30) keys are Python ints
    rng = random.Random(f"divide {m} {n}")
    _, _, xs, _ = alphabet(m, n)
    for _ in range(60):
        f = random_poly(rng, m, n, max_terms=8, max_deg=5)
        i = rng.randint(1, m - 1)
        for num in (f * (xs[i - 1] - xs[i]), f):
            packer = _recurrence_packer(m, n, num)
            quot, rem = num._divmod_x_diff(i)
            if rem:
                with pytest.raises(ExactDivisionError):
                    _divide_x_diff(packer, *packer.pack_poly(num), i)
            else:
                assert packer.unpack(*_divide_x_diff(packer, *packer.pack_poly(num), i)) == quot
    # the second remainder, x2^8 minus the variable in the slot after x2, would
    # be one key if the x slots only held the numerator's x degree (4)
    for text in ("x1 + 1", f"x1^4*x2^4 - {'y1' if m == 2 else 'x3'}"):
        non_multiple = parse(text, m, n)
        packer = _recurrence_packer(m, n, non_multiple)
        with pytest.raises(ExactDivisionError):
            _divide_x_diff(packer, *packer.pack_poly(non_multiple), 1)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_recurrence_steps_match_dict_numerator(m, n):
    # every step of every swap chain, checked against the recurrence formula
    # in Polynomial arithmetic
    sums = weight_sums_by_pi(m, n, "W" * m)
    a, b, xs, _ = alphabet(m, n)
    steps = 0
    for w in all_partial_perms(m, n):
        for i in range(1, m):
            if w[i - 1] < w[i]:
                g = sums[w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]]
                diff = xs[i - 1] - xs[i]
                step = recurrence_step(g, i)
                assert step * diff == (a + b) * g - (a + b + diff) * g.swap_x(i), (w, i)
                assert step == sums[w], (w, i)
                steps += 1
    assert steps == len(all_partial_perms(m, n)) * (m - 1) // 2


@pytest.mark.parametrize("m, n", [(3, 4), (2, 30)])
def test_recurrence_step_on_any_polynomial(m, n):
    # the numerator is divisible whatever g is; (2,30) keys are Python ints
    assert _recurrence_packer(m, n).key_dtype == (object if n == 30 else np.int64)
    rng = random.Random(f"step {m} {n}")
    a, b, xs, _ = alphabet(m, n)
    for _ in range(30):
        g = random_poly(rng, m, n, max_terms=8, max_deg=5, max_coeff=10**17)
        i = rng.randint(1, m - 1)
        diff = xs[i - 1] - xs[i]
        assert recurrence_step(g, i) * diff == (a + b) * g - (a + b + diff) * g.swap_x(i)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_recurrence_forced_promotion(monkeypatch, m, n):
    # a headroom just past 6 L1 of the largest base case keeps the base
    # products and first numerators in int64 and promotes inside a step
    sums = weight_sums_by_pi(m, n, "W" * m)
    bases = [w for w in sums if all(w[k] > w[k + 1] for k in range(m - 1))]
    first_step = 6 * max(base_case(m, n, w).l1_norm() for w in bases) + 1
    merged_dtypes = set()
    merge = _packed.merge

    def spy(keys, coeffs):
        merged_dtypes.add(coeffs.dtype.kind)
        return merge(keys, coeffs)

    monkeypatch.setattr(_packed, "merge", spy)
    for headroom, kinds in ((first_step, {"i", "O"}), (2, {"O"})):
        monkeypatch.setattr(_packed, "INT64_HEADROOM", headroom)
        merged_dtypes.clear()
        assert recurrence_table(m, n) == sums
        assert merged_dtypes == kinds


def test_schubert_sum_examples():
    assert schubert_sum(3, 3, (3, 1, 2)) == product(3, 3, ["x1-y1", "x1-y2"])
    assert schubert_sum(1, 1, (1,)) == parse("1", 1, 1)
    assert schubert_sum(2, 2, (2, 1)) == parse("x1-y1", 2, 2)


def test_schubert_sum_beta_independent():
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for pi in all_partial_perms(m, n):
            ref = schubert_sum(m, n, pi)
            for beta in all_hybridizations(m):
                assert schubert_sum(m, n, pi, beta) == ref, (m, n, pi, beta)


def test_min_extension():
    assert min_extension((2, 4), 4) == (2, 4, 1, 3)
    assert min_extension((3, 1, 2), 3) == (3, 1, 2)
    assert min_extension((1, 2, 5, 3), 5) == (1, 2, 5, 3, 4)


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((3, 1, 2)) == 2


def test_double_schubert_oracle_small():
    assert double_schubert_oracle((2, 1), 2, 2) == parse("x1-y1", 2, 2)
    assert double_schubert_oracle((1, 2), 2, 2) == parse("1", 2, 2)
    assert double_schubert_oracle((3, 1, 2), 3, 3) == product(3, 3, ["x1-y1", "x1-y2"])


def test_schubert_sum_equals_oracle_of_extension():
    for m, n in [(1, 2), (2, 2), (2, 3), (2, 4), (3, 3)]:
        for pi in all_partial_perms(m, n):
            assert schubert_sum(m, n, pi) == double_schubert_oracle(
                min_extension(pi, n), m, n
            ), (m, n, pi)


def test_b_leading_312():
    g = generic_polynomial(3, 3, "WWW", (3, 1, 2))
    deg, coeff = g.leading_form(Var("B"))
    assert deg == 7
    assert coeff == product(3, 3, ["A+x1-y1", "A+x1-y2"])
    report = b_leading_check(3, 3, (3, 1, 2))
    assert report.ok, report.failures


def test_b_leading_1x1():
    g = generic_polynomial(1, 1, "W", (1,))
    assert g.leading_form(Var("B")) == (1, parse("1", 1, 1))


def test_b_leading_sweep_2x3():
    for pi in all_partial_perms(2, 3):
        report = b_leading_check(2, 3, pi)
        assert report.ok, report.failures


def test_shift_x_by_a():
    f = parse("x1*x2 - y1", 2, 2)
    assert shift_x_by_a(f) == parse("A^2 + A*x1 + A*x2 + x1*x2 - y1", 2, 2)


def test_mirror_checks():
    assert mirror_check(1, 1, (1,)).ok
    assert mirror_check(3, 3, (3, 1, 2)).ok
    for pi in all_partial_perms(2, 3):
        assert mirror_check(2, 3, pi).ok, pi


def test_mirror_failures_name_both_words_of_a_broken_pair():
    sums = weight_sums_by_pi(2, 3, "WW")
    words = all_partial_perms(2, 3)
    assert mirror_failures(2, 3, words, sums) == []
    sums[(1, 2)] = sums[(1, 2)] + parse("A", 2, 3)
    assert mirror_failures(2, 3, words, sums) == [
        "pi=(1, 2): mirror identity fails against (2, 3)",
        "pi=(2, 3): mirror identity fails against (1, 2)",
    ]


def test_mirror_substitution_matches_gamma_conjugate_polynomial():
    pi = (3, 1, 2)
    conj = gamma_conjugate(pi, 3, 3)
    lhs = generic_polynomial(3, 3, "WWW", pi)
    rhs = generic_polynomial(3, 3, "WWW", conj)
    assert lhs == mirror_substitution(rhs)


def test_class_of_e_examples():
    assert class_of_e(1, 1, (1,)) == parse("1", 1, 1)
    assert class_of_e(2, 2, (2, 1)) == product(2, 2, ["A+x1-y1", "B-x2+y2"])
    cls = class_of_e(3, 3, (3, 1, 2))
    assert cls.is_homogeneous(6)
    # decreasing words match the closed product without the (A+B)^m prefix
    assert class_of_e(3, 3, (3, 2, 1)) == product(
        3, 3, ["A+x1-y1", "A+x1-y2", "A+x2-y1", "B-x2+y3", "B-x3+y2", "B-x3+y3"]
    )


def test_positivity_specialization():
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        for pi in all_partial_perms(m, n):
            g = generic_polynomial(m, n, "W" * m, pi)
            value = g.evaluate(1, 1, [0] * m, [0] * n)
            total = 0
            for d in grid.enumerate_dreams(m, n, "W" * m, pi):
                elbows = sum(1 for row in d.tiles for t in row if t in grid.ELBOWS)
                total += 2**elbows
            assert value == total > 0


def test_b_degree_bound_over_dreams():
    from gpd.schubert import _weight_b_degree, _is_nongeneric

    for pi in all_partial_perms(2, 3):
        bound = 2 * 3 - inversions(min_extension(pi, 3))
        for beta in all_hybridizations(2):
            for d in grid.enumerate_dreams(2, 3, beta, pi):
                bdeg = _weight_b_degree(d)
                assert bdeg <= bound
                assert (bdeg == bound) == _is_nongeneric(d)


def test_reduced_sums_agree_with_full_polynomials():
    # the reduced coordinates re-express the same sums, so equality of the
    # reduced tables across hybridizations must mirror full equality
    for beta in all_hybridizations(2):
        red = reduced_weight_sums(2, 3, beta)
        full = weight_sums_by_pi(2, 3, beta)
        assert set(red) == set(full)
    ref_red = reduced_weight_sums(2, 3, "WW")
    ref_full = weight_sums_by_pi(2, 3, "WW")
    for beta in all_hybridizations(2):
        assert reduced_weight_sums(2, 3, beta) == ref_red
        assert weight_sums_by_pi(2, 3, beta) == ref_full


def test_check_partial_perm_rejects_bad_words():
    with pytest.raises(ValueError):
        check_partial_perm((1, 1), 2, 3)
    with pytest.raises(ValueError):
        check_partial_perm((0, 2), 2, 3)
    with pytest.raises(ValueError):
        check_partial_perm((1, 2, 3), 2, 3)
