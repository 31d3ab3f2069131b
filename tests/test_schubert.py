import itertools
import random

import numpy as np
import pytest

import refpoly
from gpd import _packed, grid, poly, schubert
from gpd.poly import ExactDivisionError, Polynomial, Var, alphabet, parse
from gpd.schubert import (
    all_hybridizations,
    all_partial_perms,
    base_case,
    check_partial_perm,
    class_of_e,
    compute_by_recurrence,
    double_schubert_oracle,
    gamma_conjugate,
    generic_polynomial,
    inversions,
    min_extension,
    mirror_substitution,
    recurrence_step,
    recurrence_table,
    reduced_weight_sums,
    schubert_sum,
    shift_x_by_a,
    weight_sums_by_pi,
    _weight_sums_exact,
)
from gpd.verify import run_checks

from conftest import SMALL_SHAPES, random_poly


def inverse_step(g: Polynomial, i: int) -> Polynomial:
    """((A+B) d_i - r_i) applied to g; sends G(pi) to G(pi.r_i) one step longer."""
    a, b, _, _ = alphabet(g.m, g.n)
    return (a + b) * g.divided_difference(i) - g.swap_x(i)


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
        assert refpoly.is_homogeneous(g, 6)
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
    # a headroom below the largest merge's bound makes the engine's later
    # merges, each certified by its own bound, take Python ints, or every
    # merge at a headroom of 2
    beta = "W" * (m - 1) + "E"
    full = weight_sums_by_pi(m, n, beta)
    reduced = reduced_weight_sums(m, n, beta)
    factors = [parse(f"{k}*A - B + x1 - {k}*y{n}", m, n) for k in (2, 3, 5)]
    prod = poly.product(m, n, factors)
    merged_dtypes = set()
    merge = _packed.merge

    def spy(keys, coeffs):
        merged_dtypes.add(coeffs.dtype.kind)
        return merge(keys, coeffs)

    monkeypatch.setattr(_packed, "merge", spy)
    for headroom, kinds in ((3 ** (m + 1), {"i", "O"}), (2, {"O"})):
        monkeypatch.setattr(_packed, "INT64_HEADROOM", headroom)
        merged_dtypes.clear()
        assert weight_sums_by_pi(m, n, beta) == full
        assert reduced_weight_sums(m, n, beta) == reduced
        assert poly.product(m, n, factors) == prod
        assert merged_dtypes == kinds


def test_product_beyond_int64_is_exact():
    factors = [parse(f"{10**6 + k}*A - {10**6 - k}*x2 + y3", 2, 3) for k in range(5)]
    expected = {(0,) * 7: 1}
    for f in factors:
        expected = refpoly.mul(expected, refpoly.terms(f))
    assert refpoly.terms(poly.product(2, 3, factors)) == expected
    assert max(abs(c) for c in expected.values()) > 2**63


@pytest.mark.parametrize("m, n", [(3, 4), (2, 30)])
def test_packer_round_trip_at_bounds(m, n):
    packer = _packed.Packer.alphabet(m, n)
    bounds = [m * n, m * n] + [n] * m + [m] * n
    assert packer.key_dtype == (object if (m, n) == (2, 30) else np.int32)
    for k, b in enumerate(bounds):
        exps = tuple(b if s == k else 0 for s in range(len(bounds)))
        p = Polynomial(m, n, {exps: -7, tuple(bounds): 3})
        assert refpoly.terms(p) == {exps: -7, tuple(bounds): 3}
        keys = p.packer.rekey(p.keys, packer)
        assert Polynomial.from_packed(m, n, packer, keys, p.coeffs) == p


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
    # every row type has one dream of a decreasing word, of weight the base
    # case, in the full alphabet and at A = y1 = 0
    for m, n in SMALL_SHAPES:
        for pi in all_partial_perms(m, n):
            if any(pi[i] <= pi[i + 1] for i in range(m - 1)):
                continue
            for beta in all_hybridizations(m):
                dreams = list(grid.enumerate_dreams(m, n, beta, pi))
                assert len(dreams) == 1, (m, n, beta, pi)
                for zero in [(), schubert.ORIGIN]:
                    weight = grid.weight(dreams[0]).at_zero(*zero)
                    assert weight == base_case(m, n, pi, *zero), (m, n, beta, pi, zero)


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

    def spy(g, i):
        calls.append(i)
        return step(g, i)

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


def _dense(rng: random.Random, m: int, n: int) -> Polynomial:
    """A random polynomial plus one term of degree 2 in every variable, so
    that at (2,30) its 34 slots take 68 bits and the keys are Python ints."""
    f = random_poly(rng, m, n, max_terms=8, max_deg=5)
    return f + Polynomial(m, n, {(2,) * (2 + m + n): 1})


def _numerator(g: Polynomial, i: int) -> dict:
    """(A+B) g - (A+B+x_i-x_{i+1}) r_i g in reference arithmetic."""
    width = 2 + g.m + g.n
    unit = [tuple(int(s == k) for s in range(width)) for k in range(width)]
    ab = {unit[0]: 1, unit[1]: 1}
    ab_diff = {**ab, unit[1 + i]: 1, unit[2 + i]: -1}
    f = refpoly.terms(g)
    return refpoly.sub(refpoly.mul(ab, f), refpoly.mul(ab_diff, refpoly.swap_x(f, i, width)))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 4), (2, 30)])
def test_packed_division_matches_dict_division(m, n):
    # random degrees up to 5 push the layouts past the G(pi) degrees; the
    # (2,30) polynomials have Python-int keys
    rng = random.Random(f"divide {m} {n}")
    _, _, xs, _ = alphabet(m, n)
    for _ in range(60):
        f = _dense(rng, m, n) if n == 30 else random_poly(rng, m, n, max_terms=8, max_deg=5)
        i = rng.randint(1, m - 1)
        for num in (f * (xs[i - 1] - xs[i]), f):
            quot, rem = num._divmod_x_diff(i)
            assert (refpoly.terms(quot), refpoly.terms(rem)) == refpoly.divmod_x_diff(
                refpoly.terms(num), i
            )
    # the second remainder is x2^8 minus the variable in the slot after x2:
    # its x2 exponent is the sum of the numerator's x1 and x2 exponents
    for text in ("x1 + 1", f"x1^4*x2^4 - {'y1' if m == 2 else 'x3'}"):
        non_multiple = parse(text, m, n)
        _, rem = non_multiple._divmod_x_diff(1)
        assert rem and refpoly.terms(rem) == refpoly.divmod_x_diff(refpoly.terms(non_multiple), 1)[1]


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_recurrence_steps_match_dict_numerator(m, n):
    # every step of every swap chain, checked against the recurrence formula
    # in reference arithmetic
    sums = weight_sums_by_pi(m, n, "W" * m)
    _, _, xs, _ = alphabet(m, n)
    steps = 0
    for w in all_partial_perms(m, n):
        for i in range(1, m):
            if w[i - 1] < w[i]:
                g = sums[w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]]
                step = recurrence_step(g, i)
                product = refpoly.mul(refpoly.terms(step), refpoly.terms(xs[i - 1] - xs[i]))
                assert product == _numerator(g, i), (w, i)
                assert step == sums[w], (w, i)
                steps += 1
    assert steps == len(all_partial_perms(m, n)) * (m - 1) // 2


@pytest.mark.parametrize("m, n", [(3, 4), (2, 30)])
def test_recurrence_step_on_any_polynomial(m, n):
    # the numerator is divisible whatever g is; (2,30) keys are Python ints
    rng = random.Random(f"step {m} {n}")
    _, _, xs, _ = alphabet(m, n)
    for _ in range(30):
        g = random_poly(rng, m, n, max_terms=8, max_deg=5, max_coeff=10**17)
        if n == 30:
            g = g + Polynomial(m, n, {(2,) * (2 + m + n): 1})
            assert g.keys.dtype == object
        i = rng.randint(1, m - 1)
        step = recurrence_step(g, i)
        assert refpoly.mul(refpoly.terms(step), refpoly.terms(xs[i - 1] - xs[i])) == _numerator(g, i)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_recurrence_forced_promotion(monkeypatch, m, n):
    # a headroom just past 2 L1 of the largest base case keeps the base
    # products and first differences g - r_i g in int64 and promotes inside
    # a step
    sums = weight_sums_by_pi(m, n, "W" * m)
    bases = [w for w in sums if all(w[k] > w[k + 1] for k in range(m - 1))]
    first_step = 2 * max(base_case(m, n, w).l1_norm() for w in bases) + 1
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


def _oracle_from_longest(w):
    """S_w by its own chain of divided differences from the longest element."""
    nn = len(w)
    g = product(nn, nn, [f"x{i}-y{j}" for i in range(1, nn + 1) for j in range(1, nn + 1 - i)])
    ascents, v = [], tuple(w)
    while v != tuple(range(nn, 0, -1)):
        i = next(i for i in range(1, nn) if v[i - 1] < v[i])
        ascents.append(i)
        v = v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :]
    for i in reversed(ascents):
        g = g.divided_difference(i)
    return g


def test_oracle_walk_takes_one_step_per_permutation(monkeypatch):
    # one memo from the longest element: each permutation of S_4 but w0
    # costs one divided difference, and every S_w is the one its own chain gives
    schubert._schubert_walk.cache_clear()
    calls = []
    divided_difference = Polynomial.divided_difference

    def spy(self, i):
        calls.append(i)
        return divided_difference(self, i)

    monkeypatch.setattr(Polynomial, "divided_difference", spy)
    perms = list(itertools.permutations(range(1, 5)))
    oracles = [double_schubert_oracle(w, 4, 4) for w in perms]
    assert len(calls) == len(perms) - 1
    monkeypatch.undo()
    schubert._schubert_walk.cache_clear()
    for w, g in zip(perms, oracles):
        assert g == _oracle_from_longest(w), w


def test_sweeps_reuse_the_packed_tile_factors():
    # a second sweep of one row type finds every tile factor re-keyed already
    reduced_weight_sums(3, 4, "WEW")
    before = schubert._factor.cache_info()
    assert reduced_weight_sums(3, 4, "WEW", [(1, 2, 4)])
    after = schubert._factor.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


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
    report = run_checks(["leading"], 3, 3)[0]
    assert report.ok, report.failures


def test_b_leading_1x1():
    g = generic_polynomial(1, 1, "W", (1,))
    assert g.leading_form(Var("B")) == (1, parse("1", 1, 1))


def test_b_leading_sweep_2x3():
    report = run_checks(["leading"], 2, 3)[0]
    assert report.ok, report.failures


def test_shift_x_by_a():
    f = parse("x1*x2 - y1", 2, 2)
    assert shift_x_by_a(f) == parse("A^2 + A*x1 + A*x2 + x1*x2 - y1", 2, 2)


def test_mirror_checks():
    assert run_checks(["mirror"], 1, 1)[0].ok
    assert run_checks(["mirror"], 3, 3)[0].ok
    assert run_checks(["mirror"], 2, 3)[0].ok


def test_mirror_failures_name_both_words_of_a_broken_pair(monkeypatch):
    assert run_checks(["mirror"], 2, 3)[0].failures == []
    original = schubert.reduced_weight_sums

    def broken(*args, **kwargs):
        sums = original(*args, **kwargs)
        if (1, 2) in sums:
            sums[(1, 2)] = sums[(1, 2)] + parse("B", 2, 3)
        return sums

    monkeypatch.setattr(schubert, "reduced_weight_sums", broken)
    assert run_checks(["mirror"], 2, 3)[0].failures == [
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
    assert refpoly.is_homogeneous(cls, 6)
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
    from refpipes import _is_nongeneric, _weight_b_degree

    for pi in all_partial_perms(2, 3):
        bound = 2 * 3 - inversions(min_extension(pi, 3))
        for beta in all_hybridizations(2):
            for d in grid.enumerate_dreams(2, 3, beta, pi):
                bdeg = _weight_b_degree(d)
                assert bdeg <= bound
                assert (bdeg == bound) == _is_nongeneric(d)


def test_reduced_sums_agree_with_full_polynomials():
    # evaluation at A = y1 = 0 is injective on the sums, so equality of the
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
