"""Acceptance suite: every exit criterion, exact, with its time budget.

Each test prints one PASS line (with its runtime) on success; budgets are
asserted as hard limits.
"""

import hashlib
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

from gpd import flux as fluxmod
from gpd import grid, verify, yangbaxter
from gpd.flux import EdgeId
from gpd.grid import count_dreams, enumerate_dreams, parse_dream
from gpd.poly import Polynomial, Var, parse
from gpd.schubert import (
    all_hybridizations,
    all_partial_perms,
    double_schubert_oracle,
    gamma_conjugate,
    inversions,
    min_extension,
    mirror_substitution,
    recurrence_table,
    reduced_weight_sums,
    schubert_sum,
    shift_x_by_a,
    weight_sums_by_pi,
)

from conftest import SMALL_SHAPES, random_point, random_poly
from refpipes import _is_nongeneric, _weight_b_degree

SAMPLED_45 = [(1, 2, 5, 3), (5, 4, 3, 2), (1, 2, 3, 4), (2, 4, 1, 5), (3, 1, 5, 2)]


def budget(limit):
    def wrap(fn):
        def run():
            start = time.monotonic()
            fn()
            elapsed = time.monotonic() - start
            assert elapsed < limit, f"{fn.__name__}: {elapsed:.1f}s over {limit}s budget"
            print(f"[acceptance] {fn.__name__}: PASS ({elapsed:.1f}s, budget {limit}s)")

        run.__name__ = fn.__name__
        return run

    return wrap


def product(m, n, texts):
    out = Polynomial.const(1, m, n)
    for t in texts:
        out = out * parse(t, m, n)
    return out


@budget(10)
def test_c01_counts_4x5():
    assert count_dreams(4, 5, "EWEW", (1, 2, 5, 3)) == 76
    assert count_dreams(4, 5, "WWWW", (1, 2, 5, 3)) == 78
    assert count_dreams(4, 5, "EEEE", (1, 2, 5, 3)) == 80


@budget(5)
def test_c02_golden_polynomial_g312():
    quad = parse("A^2+A*B+A*x2-A*y1+B^2-B*x3+B*y2+x2*x3-x2*y1-x3*y2+y1*y2", 3, 3)
    expected = quad * product(
        3, 3, ["B-x3+y3", "B-x2+y3", "A+x1-y2", "A+x1-y1"]
    ) * parse("A+B", 3, 3) ** 3
    for beta in all_hybridizations(3):
        sums = weight_sums_by_pi(3, 3, beta, [(3, 1, 2)])
        assert sums[(3, 1, 2)] == expected, beta


GOLDEN_312 = {
    "EWE": [
        (
            "3 3\nEWE\n|n+\n+-n\nn--\n",
            [
                ["B-x3+y1", "A+B", "B-x3+y3"],
                ["A+x1-y1", "A+x1-y2", "A+B"],
                ["A+B", "B-x2+y2", "B-x2+y3"],
            ],
        ),
        (
            "3 3\nEWE\nnb+\n-+n\n.n-\n",
            [
                ["A+B", "A+B", "B-x3+y3"],
                ["A+x1-y1", "A+x1-y2", "A+B"],
                ["A+x2-y1", "A+B", "B-x2+y3"],
            ],
        ),
    ],
    "WWW": [
        (
            "3 3\nWWW\n++n\nbn.\nn..\n",
            [
                ["A+x1-y1", "A+x1-y2", "A+B"],
                ["A+B", "A+B", "B-x2+y3"],
                ["A+B", "B-x3+y2", "B-x3+y3"],
            ],
        ),
        (
            "3 3\nWWW\n++n\nn|.\n-n.\n",
            [
                ["A+x1-y1", "A+x1-y2", "A+B"],
                ["A+B", "A+x2-y2", "B-x2+y3"],
                ["A+x3-y1", "A+B", "B-x3+y3"],
            ],
        ),
    ],
}


@budget(1)
def test_c03_golden_dreams():
    for beta, printed in GOLDEN_312.items():
        dreams = list(enumerate_dreams(3, 3, beta, (3, 1, 2)))
        expected = {grid.serialize(parse_dream(text)) for text, _ in printed}
        assert {grid.serialize(d) for d in dreams} == expected
        phi = grid.pipe_numbering(beta)
        for text, rows in printed:
            d = parse_dream(text)
            for i in range(1, 4):
                row_weight = product(3, 3, rows[i - 1])
                got = Polynomial.const(1, 3, 3)
                for j in range(1, 4):
                    got = got * grid.tile_weight(
                        d.row_type(i), d.tile(i, j), phi[i - 1], j, 3, 3
                    )
                assert got == row_weight, (beta, text, i)
    intro = parse_dream("3 4\nWEW\nne+n\n.n+-\n--n.\n")
    expected = parse("A+B", 3, 4) ** 5 * product(
        3, 4,
        ["A+x1-y3", "A+x3-y1", "B-x3+y3", "B-x3+y4", "A+x2-y1", "A+x2-y2", "B-x2+y4"],
    )
    assert grid.weight(intro) == expected


@budget(120)
def test_c04_beta_independence():
    # exhaustive sweep: G at A = y1 = 0 coincides across hybridizations
    # if and only if G does
    for m, n in SMALL_SHAPES:
        betas = all_hybridizations(m)
        reference = reduced_weight_sums(m, n, betas[0])
        assert set(reference) == set(all_partial_perms(m, n))
        for beta in betas[1:]:
            assert reduced_weight_sums(m, n, beta) == reference, (m, n, beta)
    # spot confirmation on full polynomials at a small shape
    full_ref = weight_sums_by_pi(2, 3, "WW")
    for beta in all_hybridizations(2):
        assert weight_sums_by_pi(2, 3, beta) == full_ref
    # (4, 5): five pinned connectivities across all sixteen hybridizations
    reference = reduced_weight_sums(4, 5, "WWWW", SAMPLED_45)
    assert set(reference) == set(SAMPLED_45)
    for beta in all_hybridizations(4):
        if beta == "WWWW":
            continue
        assert reduced_weight_sums(4, 5, beta, SAMPLED_45) == reference, beta


def gpd_within_1gib(argv, timeout):
    """``gpd <argv>`` run as the command line runs it, in a child whose
    address space is capped at 1 GiB and CPU time at ``timeout`` seconds.

    Returns its exit code, its stdout in a rewound temporary file, its
    stderr, and its peak RSS in MB: the ``ru_maxrss`` of ``os.wait4``.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (timeout, timeout))

    out = tempfile.TemporaryFile()
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "gpd.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode()
    out.seek(0)
    return child.returncode, out, message, usage.ru_maxrss / 1024


def verify_within_1gib(check, m, n, timeout):
    """Exit code, stdout and stderr of ``gpd verify <check>`` within 1 GiB."""
    code, out, err, _ = gpd_within_1gib(["verify", check, "--m", str(m), "--n", str(n)], timeout)
    with out:
        return code, out.read().decode(), err


@budget(120)
def test_c04_verify_beta_4x5_within_1gib():
    # every connectivity of (4,5) across all sixteen hybridizations
    code, out, err = verify_within_1gib("beta", 4, 5, timeout=120)
    assert code == 0, err
    assert "PASS beta-independence (4,5)" in out.splitlines()


@budget(30)
def test_c02_poly_4x5_within_280mb():
    # G(1,2,3,4) at (4,5): 85,895,751 bytes of text, pinned by hash; the
    # sweep merges each frontier state once per cell, so the peak stays low
    code, out, err, peak_mb = gpd_within_1gib(["poly", "--m", "4", "--n", "5", "--pi", "1,2,3,4"], 30)
    with out:
        digest = hashlib.file_digest(out, "sha256").hexdigest()
        size = out.tell()
    assert code == 0, err
    assert (size, digest) == (
        85_895_751, "1d0585315528dc58be663757df5b99984b3270ea52b87a4a94edf1784c7446e9"
    )
    assert peak_mb <= 280, f"peak RSS {peak_mb:.0f} MB"


@budget(30)
def test_c02_poly_4x5_within_150mb():
    # the same G(1,2,3,4): the last merges go by key range, the re-key and
    # the canonical order by chunk, so no pass holds more than two copies
    # of G (125-128 MB measured; 204-217 MB when the last merges sorted one
    # buffer of every product)
    code, out, err, peak_mb = gpd_within_1gib(["poly", "--m", "4", "--n", "5", "--pi", "1,2,3,4"], 30)
    with out:
        digest = hashlib.file_digest(out, "sha256").hexdigest()
        size = out.tell()
    assert code == 0, err
    assert (size, digest) == (
        85_895_751, "1d0585315528dc58be663757df5b99984b3270ea52b87a4a94edf1784c7446e9"
    )
    assert peak_mb <= 150, f"peak RSS {peak_mb:.0f} MB"


@budget(30)
def test_c02_poly_4x5_within_110mb():
    # the same G(1,2,3,4): a merge by key range counts its output's terms
    # first and merges every range into one array of that size, so it holds
    # its output once (92-95 MB measured; 125-127 MB when it joined the
    # merged ranges at the end)
    code, out, err, peak_mb = gpd_within_1gib(["poly", "--m", "4", "--n", "5", "--pi", "1,2,3,4"], 30)
    with out:
        digest = hashlib.file_digest(out, "sha256").hexdigest()
        size = out.tell()
    assert code == 0, err
    assert (size, digest) == (
        85_895_751, "1d0585315528dc58be663757df5b99984b3270ea52b87a4a94edf1784c7446e9"
    )
    assert peak_mb <= 110, f"peak RSS {peak_mb:.0f} MB"


@budget(60)
def test_c02_poly_4x6_within_1gib():
    # G(1,2,3,4) at (4,6): 1,034,557,889 bytes of text, pinned by hash
    # (the output of the merge that joined its ranges, run under 3 GiB);
    # 654 MB measured, where that merge ran out of 1 GiB
    code, out, err, _ = gpd_within_1gib(["poly", "--m", "4", "--n", "6", "--pi", "1,2,3,4"], 60)
    with out:
        digest = hashlib.file_digest(out, "sha256").hexdigest()
        size = out.tell()
    assert code == 0, err
    assert (size, digest) == (
        1_034_557_889, "191fb8a6b54cc39362542ef36fe4e285660e145de0e91fd2d4554fc81fe7cb6a"
    )


@budget(60)
def test_c05_recurrence():
    for m, n in SMALL_SHAPES:
        table = recurrence_table(m, n)  # every division checked exact inside
        sums = weight_sums_by_pi(m, n, "W" * m)
        assert set(table) == set(sums)
        for pi, g in table.items():
            assert g == sums[pi], (m, n, pi)


@budget(30)
def test_c05_verify_recurrence_4x5_within_1gib():
    # every word of (4,5): the recurrence table and the sweep at A = y1 = 0
    code, out, err = verify_within_1gib("recurrence", 4, 5, timeout=30)
    assert code == 0, err
    assert "PASS recurrence (4,5)" in out.splitlines()


@budget(60)
def test_c05_verify_recurrence_5x5_within_1gib():
    # all 120 words of (5,5), one batch of words sharing their last letter
    # at a time, each word one recurrence step from its parent's swept G;
    # each merge in the dtype its own bound certifies, int32 for all
    # (320 MB measured; 387 MB with int64 coefficients throughout)
    argv = ["verify", "recurrence", "--m", "5", "--n", "5"]
    code, out, err, peak_mb = gpd_within_1gib(argv, 60)
    with out:
        text = out.read().decode()
    assert code == 0, err
    assert "PASS recurrence (5,5)" in text.splitlines()
    assert peak_mb <= 350, f"peak RSS {peak_mb:.0f} MB"


@budget(10)
def test_c06_base_case():
    from gpd.schubert import base_case

    for m, n in SMALL_SHAPES:
        for pi in all_partial_perms(m, n):
            if any(pi[i] <= pi[i + 1] for i in range(m - 1)):
                continue
            expected = base_case(m, n, pi)
            for beta in all_hybridizations(m):
                dreams = list(enumerate_dreams(m, n, beta, pi))
                assert len(dreams) == 1, (m, n, beta, pi)
                assert grid.weight(dreams[0]) == expected


@budget(60)
def test_c07_leading_form():
    B = Var("B")
    for m, n in SMALL_SHAPES:
        oracle_cache = {}
        for pi in all_partial_perms(m, n):
            ext = min_extension(pi, n)
            oracle_cache[pi] = (m * n - inversions(ext), double_schubert_oracle(ext, m, n))
        by_beta = {beta: weight_sums_by_pi(m, n, beta) for beta in all_hybridizations(m)}
        for pi in all_partial_perms(m, n):
            expected_deg, oracle = oracle_cache[pi]
            s = schubert_sum(m, n, pi)
            assert s == oracle, (m, n, pi)
            shifted = shift_x_by_a(s)
            for beta, sums in by_beta.items():
                deg, coeff = sums[pi].leading_form(B)
                assert deg == expected_deg, (m, n, pi, beta)
                assert coeff == shifted, (m, n, pi, beta)
                for d in enumerate_dreams(m, n, beta, pi):
                    bdeg = _weight_b_degree(d)
                    if _is_nongeneric(d):
                        assert bdeg == expected_deg, (m, n, pi, beta)
                    else:
                        assert bdeg < expected_deg, (m, n, pi, beta)
    # pinned values for pi = 312
    g = weight_sums_by_pi(3, 3, "WWW", [(3, 1, 2)])[(3, 1, 2)]
    deg, coeff = g.leading_form(B)
    assert deg == 7
    assert coeff == product(3, 3, ["A+x1-y1", "A+x1-y2"])
    assert schubert_sum(3, 3, (3, 1, 2)) == product(3, 3, ["x1-y1", "x1-y2"])


@budget(5)
def test_c07_check_leading_4x4():
    report = verify.run_checks(["leading"], 4, 4)[0]
    assert report.ok, report.failures[:3]


@budget(30)
def test_c08_mirror():
    for m, n in SMALL_SHAPES:
        sums = weight_sums_by_pi(m, n, "W" * m)
        for pi in all_partial_perms(m, n):
            conj = gamma_conjugate(pi, m, n)
            assert sums[pi] == mirror_substitution(sums[conj]), (m, n, pi)


@budget(30)
def test_c08_verify_mirror_4x5_within_1gib():
    # every word of (4,5): sweeps at A = y1 = 0 and at B = y5 = 0
    code, out, err = verify_within_1gib("mirror", 4, 5, timeout=30)
    assert code == 0, err
    assert "PASS mirror (4,5)" in out.splitlines()


@budget(60)
def test_c08_verify_mirror_5x5_within_1gib():
    # all 120 words of (5,5): per batch, the words ending in k at A = y1 = 0
    # against their conjugates, which begin with 6 - k, at B = y5 = 0
    code, out, err = verify_within_1gib("mirror", 5, 5, timeout=60)
    assert code == 0, err
    assert "PASS mirror (5,5)" in out.splitlines()


@budget(10)
def test_c09_yang_baxter():
    for mode in ("ww", "we"):
        report = verify.verify_ybe(mode)
        assert report.ok, report.failures[:3]
    P = lambda s: parse(s, 2, 1)
    identity_one = (
        P("A+B") ** 2 * P("A+x2-y1"),
        P("A+B") ** 2 * P("x2-x1") + P("A+B") ** 2 * P("A+x1-y1"),
    )
    identity_two = (
        P("A+B") ** 2 * P("B-x2+y1") + P("A+B") * P("x2-x1") * P("A+x1-y1"),
        P("A+B") * P("A+B+x1-x2") * P("B-x1+y1"),
    )
    swap = lambda f: f.signed_relabel(
        {Var("x", 1): (1, Var("x", 2)), Var("x", 2): (1, Var("x", 1))}
    )
    identities = yangbaxter.class_identities("ww")
    for lhs, rhs in (identity_one, identity_two):
        hit = any(
            (west == lhs and east == rhs) or (west == swap(lhs) and east == swap(rhs))
            for _, _, west, east in identities
        )
        assert hit, "displayed identity missing from the class family"


@budget(5)
def test_c10_crossing_symmetry():
    report = verify.run_checks(["crossing"], 1, 1)[0]
    assert report.ok, report.failures[:3]


@budget(120)
def test_c11_flux_suite():
    for m in range(1, 5):
        for n in range(m, 5):
            for beta in all_hybridizations(m):
                assert verify.conservation_check(m, n, beta).ok, (m, n, beta)
    for m, n in SMALL_SHAPES:
        table = recurrence_table(m, n)
        ab_m = parse("A+B", m, n) ** m
        for beta in all_hybridizations(m):
            sums = {}
            for d in enumerate_dreams(m, n, beta):
                eqs = fluxmod.variety_equations(d)
                assert fluxmod.reconstruct_dream(eqs) == d
                cls = fluxmod.component_class(eqs)
                piece = ab_m * cls
                sums[eqs.pi] = sums[eqs.pi] + piece if eqs.pi in sums else piece
            assert sums == table, (m, n, beta)
    # the worked 2x2 example: reduced tables with documented corrections,
    # and the recipe rebuilds the two printed component dreams
    red1 = fluxmod.reduced_flux_table(2, 2, "WE", zeros=[("X", 2, 1), ("X", 1, 2)])
    assert red1[EdgeId("H", 0, 1)] == frozenset({(1, 1)})
    assert red1[EdgeId("H", 0, 2)] == frozenset({(2, 2)})
    assert red1[EdgeId("V", 1, 0)] == frozenset({(1, 1)})
    assert red1[EdgeId("V", 2, 2)] == frozenset({(2, 2)})
    assert red1[EdgeId("H", 1, 2)] == frozenset({(2, 2)})
    assert fluxmod.dream_from_flux_table(2, 2, "WE", red1) == parse_dream(
        "2 2\nWE\nn|\n.n\n"
    )
    red2 = fluxmod.reduced_flux_table(
        2, 2, "WE", zeros=[("Y", 2, 2)], rewrites={(2, 1): (1, 2)}
    )
    assert red2[EdgeId("H", 0, 2)] == frozenset({(1, 2)})
    assert red2[EdgeId("V", 2, 2)] == frozenset({(1, 2)})
    assert fluxmod.dream_from_flux_table(2, 2, "WE", red2) == parse_dream(
        "2 2\nWE\nbn\nn-\n"
    )


@budget(20)
def test_c11_verify_flux_4x4_within_1gib():
    # conservation, every dream of (4,4) rebuilt from its flux labels, and
    # one class sweep per row type at A = y1 = 0 (2.2-2.4 s at 40 MB
    # measured; 40-45 s at 143-145 MB when each dream's class was
    # multiplied out)
    code, out, err = verify_within_1gib("flux", 4, 4, timeout=20)
    assert code == 0, err
    assert "PASS flux (4,4)" in out.splitlines()


@budget(10)
def test_c12_property_fuzz():
    rng = random.Random(20250808)
    for _ in range(1000):
        f = random_poly(rng, 2, 2)
        g = random_poly(rng, 2, 2)
        h = random_poly(rng, 2, 2)
        a, b, xs, ys = random_point(rng, 2, 2, bound=7)
        ev = lambda p: p.evaluate(a, b, xs, ys)
        assert ev(f + g) == ev(f) + ev(g)
        assert ev(f * g) == ev(f) * ev(g)
        assert ev((f + g) * h) == ev(f * h) + ev(g * h)
        assert ev(f * (g * h)) == ev((f * g) * h)
    zero = Polynomial.zero(3, 2)
    for _ in range(200):
        f = random_poly(rng, 3, 2)
        i = rng.choice((1, 2))
        assert f.divided_difference(i).divided_difference(i) == zero
