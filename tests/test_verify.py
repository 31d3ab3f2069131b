"""`gpd verify` end to end: pinned output, failure paths, completeness, errors.

Each failure-path test breaks one input of one check with monkeypatch (a
G, a Yang-Baxter table weight or a crossing flip) and asserts that the
check reports FAIL with a message naming the broken word or class.
Messages are tested by membership, not position.
"""

import gc
import json
import weakref
from collections import Counter

import pytest

from gpd import cli, flux, grid, schubert, yangbaxter
from gpd import verify as checks
from gpd.grid import Tile
from gpd.poly import Polynomial, Var, parse
from gpd.schubert import ORIGIN, all_hybridizations, all_partial_perms, reduced_weight_sums
from gpd.verify import _plan, _targets, run_checks

from conftest import SMALL_SHAPES
from refpipes import _weight_b_degree, leading_degree_faults

G_CHECKS = ("beta", "recurrence", "leading", "mirror")


def verify(capsys, *argv):
    code = cli.main(["verify", *argv, "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, checks


def only_check(capsys, *argv):
    code, checks = verify(capsys, *argv)
    assert len(checks) == 1
    return code, checks[0]


def assert_fails_with(capsys, argv, message):
    code, check = only_check(capsys, *argv)
    assert code == 1
    assert check["status"] == "FAIL"
    assert message in check["failures"], check["failures"]


_ALL_2_3_TEXT = """\
PASS beta-independence (2,3)
PASS recurrence (2,3)
PASS leading-form (2,3)
PASS mirror (2,3)
PASS yang-baxter
PASS crossing-flip (n<=5)
PASS flux (2,3)
"""

_ALL_2_3_JSON = """\
{
  "checks": [
    {
      "failures": [],
      "name": "beta-independence (2,3)",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "recurrence (2,3)",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "leading-form (2,3)",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "mirror (2,3)",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "yang-baxter",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "crossing-flip (n<=5)",
      "status": "PASS"
    },
    {
      "failures": [],
      "name": "flux (2,3)",
      "status": "PASS"
    }
  ]
}
"""


def test_verify_all_output_is_pinned(capsys):
    assert cli.main(["verify", "all", "--m", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out == _ALL_2_3_TEXT
    assert cli.main(["verify", "all", "--m", "2", "--n", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == _ALL_2_3_JSON


# ---------------------------------------------------------------------------
# failure paths: one broken input per check
# ---------------------------------------------------------------------------


def _break_weight_sums(monkeypatch, beta, pi, extra):
    """reduced_weight_sums with ``extra`` added to G(pi) of one row type, at
    every point it is evaluated at."""
    original = schubert.reduced_weight_sums

    def broken(m, n, b, *rest, **kwargs):
        sums = original(m, n, b, *rest, **kwargs)
        if b == beta and pi in sums:
            sums[pi] = sums[pi] + parse(extra, m, n)
        return sums

    monkeypatch.setattr(schubert, "reduced_weight_sums", broken)


def _break_recurrence_table(monkeypatch):
    """recurrence_table with B added to G(2,1), in the full alphabet or at a
    point."""
    original = schubert.recurrence_table

    def broken(m, n, zero=()):
        table = original(m, n, zero)
        table[(2, 1)] = table[(2, 1)] + parse("B", m, n)
        return table

    monkeypatch.setattr(schubert, "recurrence_table", broken)


def _break_base_case(monkeypatch):
    """base_case with B added to the closed product of (2,1), the
    recurrence's expected G(2,1)."""
    original = schubert.base_case

    def broken(m, n, pi, *zero):
        g = original(m, n, pi, *zero)
        return g + parse("B", m, n) if tuple(pi) == (2, 1) else g

    monkeypatch.setattr(schubert, "base_case", broken)


def test_beta_check_fails_on_a_broken_row_type(capsys, monkeypatch):
    original = schubert.reduced_weight_sums

    def broken(m, n, beta, *rest):
        sums = original(m, n, beta, *rest)
        if beta == "WE" and (1, 2) in sums:
            sums[(1, 2)] = sums[(1, 2)] + parse("1", m, n)
        return sums

    monkeypatch.setattr(schubert, "reduced_weight_sums", broken)
    assert_fails_with(
        capsys, ("beta", "--m", "2", "--n", "2"), "beta=WE disagrees with beta=WW"
    )


def test_recurrence_check_fails_on_a_broken_table_entry(capsys, monkeypatch):
    # the check compares each word with one step from its parent's G, so
    # the entry of (2,1) it reads is the base case
    _break_base_case(monkeypatch)
    assert_fails_with(
        capsys,
        ("recurrence", "--m", "2", "--n", "3"),
        "pi=(2, 1): recurrence disagrees with enumeration",
    )


def test_leading_check_fails_on_a_broken_schubert_sum(capsys, monkeypatch):
    original = schubert.nongeneric_sums_by_pi

    def broken(m, n, beta, *rest):
        sums = original(m, n, beta, *rest)
        if beta == "EW":
            sums[(2, 1)] = sums[(2, 1)] + parse("1", m, n)
        return sums

    monkeypatch.setattr(schubert, "nongeneric_sums_by_pi", broken)
    assert_fails_with(
        capsys,
        ("leading", "--m", "2", "--n", "2"),
        "pi=(2, 1) beta=EW: nongeneric sum differs from oracle",
    )


def test_leading_check_fails_on_a_broken_degree(capsys, monkeypatch):
    # G(2,1) at (2,2) has B-degree 3; one more B raises it to 4
    _break_weight_sums(monkeypatch, "EW", (2, 1), "B^4")
    assert_fails_with(
        capsys,
        ("leading", "--m", "2", "--n", "2"),
        "pi=(2, 1) beta=EW: B-degree 4 != 3",
    )


def test_leading_check_fails_on_a_broken_leading_coefficient(capsys, monkeypatch):
    _break_weight_sums(monkeypatch, "WE", (1, 2), "x1*B^4")
    assert_fails_with(
        capsys,
        ("leading", "--m", "2", "--n", "2"),
        "pi=(1, 2) beta=WE: leading coefficient mismatch",
    )


@pytest.mark.parametrize("row_type, tile", [("W", Tile.STRAIGHT_H), ("E", Tile.BLANK)])
def test_leading_check_fails_on_a_tile_with_a_broken_b_degree(monkeypatch, row_type, tile):
    # counting one more tile as a B tile breaks the per-dream claim, and the
    # counts flag exactly the words the dream-by-dream reference loop flags
    b_tiles = {**checks._B_TILES, row_type: checks._B_TILES[row_type] | {tile}}
    monkeypatch.setattr(checks, "_B_TILES", b_tiles)
    faults = leading_degree_faults(2, 3, b_tiles)
    report = run_checks(["leading"], 2, 3)[0]
    assert faults and not report.ok
    assert sorted(report.failures) == sorted(
        f"pi={pi} beta={beta}: the dreams of B-degree {top} are not exactly the "
        "nongeneric ones, or some dream exceeds it"
        for (pi, beta), top in faults.items()
    )


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_b_degree_counts_match_the_dreams(m, n):
    # digit d of a word's count, mn + 1 bits wide, is its number of dreams
    # of B-degree d, in both modes
    bits = m * n + 1
    for beta in all_hybridizations(m):
        for mode, counts in zip(["generic", "nongeneric"], checks._b_degree_counts(m, n, beta)):
            walked: dict = {}
            for pi, d in grid.walk(m, n, beta, mode):
                walked.setdefault(pi, Counter())[_weight_b_degree(d)] += 1
            decoded = {}
            for pi, count in counts.items():
                assert count >> bits * (m * n + 1) == 0, (beta, mode, pi)
                digits = {deg: count >> bits * deg & (1 << bits) - 1 for deg in range(m * n + 1)}
                decoded[pi] = +Counter(digits)
            assert decoded == walked, (beta, mode)


def test_b_tiles_are_the_tiles_whose_weight_has_a_b_term():
    for row_type in "WE":
        for tile in Tile:
            b_degree = grid.tile_weight(row_type, tile, 1, 1, 1, 1).leading_form(Var("B"))[0]
            assert (tile in checks._B_TILES[row_type]) == (b_degree == 1), (row_type, tile)


def test_g_checks_walk_no_dream(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("dream walked")

    for name in ("walk", "enumerate_dreams", "connectivity"):
        monkeypatch.setattr(grid, name, refused)
    for report in run_checks(G_CHECKS, 3, 4):
        assert report.ok, (report.name, report.failures)


def test_mirror_check_fails_on_a_broken_g(capsys, monkeypatch):
    _break_weight_sums(monkeypatch, "WW", (1, 2), "B")
    code, check = only_check(capsys, "mirror", "--m", "2", "--n", "3")
    assert code == 1 and check["status"] == "FAIL"
    assert "pi=(1, 2): mirror identity fails against (2, 3)" in check["failures"]
    assert "pi=(2, 3): mirror identity fails against (1, 2)" in check["failures"]


def test_mirror_check_reports_a_missing_word_and_goes_on(capsys, monkeypatch):
    # (2,1), the whole of batch 1, has no dream in either sweep; batch 2 is
    # still checked, and its self-conjugate pair (1,2) broken
    original = schubert.reduced_weight_sums

    def broken(m, n, beta, pis, zero):
        sums = original(m, n, beta, pis, zero)
        sums.pop((2, 1), None)
        if (1, 2) in sums:
            sums[(1, 2)] = sums[(1, 2)] + parse("B", m, n)
        return sums

    monkeypatch.setattr(schubert, "reduced_weight_sums", broken)
    code, check = only_check(capsys, "mirror", "--m", "2", "--n", "2")
    assert code == 1
    assert check["failures"] == [
        "pi=(2, 1): no dream enumerated",
        "pi=(1, 2): mirror identity fails against (1, 2)",
    ]


def test_ybe_check_fails_on_a_broken_table_weight(capsys, monkeypatch):
    layouts = yangbaxter._layouts()
    (name, diamond, ins, outs), *squares = layouts["ww-left"]
    assert name == "D"
    diamond = tuple(
        e._replace(weight=parse("A+B", 2, 1)) if e.label == "blank" else e
        for e in diamond
    )
    monkeypatch.setitem(layouts, "ww-left", ((name, diamond, ins, outs), *squares))
    code, check = only_check(capsys, "ybe", "--mode", "ww")
    assert code == 1 and check["status"] == "FAIL"
    # the blank diamond serves the boundaries with both west channels empty
    assert any(f.startswith("boundary [] class ():") for f in check["failures"])
    assert any(
        f.startswith("boundary ['in_south'] class (('in_south', 'out_north'),):")
        for f in check["failures"]
    ), check["failures"]


def test_crossing_check_fails_on_a_broken_flip(capsys, monkeypatch):
    original = grid.crossing_flip
    victim = next(grid.enumerate_dreams(1, 2, "W"))

    def broken(d):
        return d if d == victim else original(d)

    monkeypatch.setattr(grid, "crossing_flip", broken)
    assert_fails_with(
        capsys, ("crossing",), f"{grid.serialize(victim)!r}: row type did not flip"
    )


def test_flux_check_fails_on_a_broken_g(capsys, monkeypatch):
    _break_recurrence_table(monkeypatch)
    assert_fails_with(
        capsys,
        ("flux", "--m", "2", "--n", "2"),
        "beta=EW pi=(2, 1): component classes do not sum to G",
    )


def test_flux_check_fails_when_a_dream_is_not_rebuilt(capsys, monkeypatch):
    # one dream of (2,2) is rebuilt as another from its flux labels
    dream, other, *_ = grid.enumerate_dreams(2, 2, "WE")
    original = flux.reconstruct_dream
    monkeypatch.setattr(flux, "reconstruct_dream",
                        lambda eqs: other if original(eqs) == dream else original(eqs))
    code, check = only_check(capsys, "flux", "--m", "2", "--n", "2")
    assert code == 1 and check["status"] == "FAIL"
    assert check["failures"] == ["beta=WE: reconstruction failed for a dream"]


def test_flux_check_fails_on_a_mutated_turn_rule(capsys, monkeypatch):
    # the class sweep also skips every ELBOW_OUT, so its classes lose factors
    own_turn = schubert._own_turn
    monkeypatch.setattr(schubert, "_own_turn",
                        lambda t, side, pipe: t is Tile.ELBOW_OUT or own_turn(t, side, pipe))
    code, check = only_check(capsys, "flux", "--m", "3", "--n", "3")
    assert code == 1 and check["status"] == "FAIL"
    assert any(f.endswith(": component classes do not sum to G") for f in check["failures"])


def _count_calls(monkeypatch, module, names):
    """Patch each named function of ``module`` to count its calls; return
    the Counter they count into."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_flux_check_routes_labels_twice_per_dream(monkeypatch):
    # once for the dream's equation set and once for its rebuilt copy;
    # neither validate nor connectivity routes them again
    dreams = sum(grid.count_dreams(3, 3, beta) for beta in all_hybridizations(3))
    calls = _count_calls(monkeypatch, grid, ("edge_labels", "connectivity", "validate"))
    (report,) = run_checks(["flux"], 3, 3)
    assert report.ok, report.failures
    assert calls == Counter(edge_labels=2 * dreams)


def test_crossing_flip_routes_labels_once(monkeypatch):
    calls = _count_calls(monkeypatch, grid, ("edge_labels", "crossing_flip"))
    (report,) = run_checks(["crossing"], 1, 1)
    assert report.ok, report.failures
    assert calls["crossing_flip"] and calls["edge_labels"] == calls["crossing_flip"]


# ---------------------------------------------------------------------------
# the global G checks run at A = y1 = 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("check", ["recurrence", "leading", "mirror", "flux"])
def test_g_checks_never_build_the_full_alphabet_g(capsys, monkeypatch, check):
    # nor does any of them multiply out a dream's component class
    original = schubert.recurrence_table

    def refused(*args, **kwargs):
        raise AssertionError("full-alphabet G built")

    def evaluated_only(m, n, zero=()):
        if not zero:
            refused()
        return original(m, n, zero)

    monkeypatch.setattr(schubert, "weight_sums_by_pi", refused)
    monkeypatch.setattr(schubert, "recurrence_table", evaluated_only)
    monkeypatch.setattr(flux, "component_class", refused)
    code, report = only_check(capsys, check, "--m", "3", "--n", "4")
    assert code == 0 and report["status"] == "PASS", report["failures"]


# ---------------------------------------------------------------------------
# the G checks read G one word batch at a time, each sweep once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, n", SMALL_SHAPES + [(4, 4)])
def test_batched_sums_are_the_all_words_sums(m, n):
    # the plan's batches cover every word at each point, and a batch's sums
    # are the all-words sums of its words
    for beta in all_hybridizations(m):
        for zero in (ORIGIN, (Var("B"), Var("y", n))):
            sweeps = [s for s in _plan(m, n) if (s.beta, s.zero) == (beta, zero)]
            if not sweeps:
                continue
            full = reduced_weight_sums(m, n, beta, zero=zero)
            covered = set()
            for s in sweeps:
                targets = _targets(m, n, s, True)
                assert reduced_weight_sums(m, n, beta, targets, zero) == {
                    pi: full[pi] for pi in targets
                }, (m, n, s)
                covered |= set(targets)
            assert covered == set(all_partial_perms(m, n)), (m, n, beta, zero)


def _count_sweeps(monkeypatch):
    calls = []
    original = schubert.reduced_weight_sums

    def spy(m, n, beta, pis=None, zero=ORIGIN):
        calls.append((beta, zero, tuple(pis)))
        return original(m, n, beta, pis, zero)

    monkeypatch.setattr(schubert, "reduced_weight_sums", spy)
    return calls


@pytest.mark.parametrize(
    "check, per_batch",
    [("all", 2**3 + 1), ("beta", 2**3), ("recurrence", 1), ("leading", 2**3), ("mirror", 2)],
)
def test_each_reduced_sweep_runs_once(capsys, monkeypatch, check, per_batch):
    # verify all: every row type at A = y1 = 0 and the all-W row type at
    # B = yn = 0, per batch of words sharing their last letter, each once
    calls = _count_sweeps(monkeypatch)
    assert cli.main(["verify", check, "--m", "3", "--n", "3"]) == 0
    assert len(calls) == len(set(calls)) == per_batch * 3
    assert {len(pis) for _, _, pis in calls} <= {2, 3}  # 2 words per batch, or 3 with a parent


class _LazyPool:
    """Stands in for ProcessPoolExecutor: a submitted sweep runs when its
    result is read, and ``in_flight`` records how many were submitted and
    not yet read at each submission."""

    def __init__(self, max_workers):
        self.open = 0
        self.in_flight = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool = self
        self.open += 1
        self.in_flight.append(self.open)

        class Pending:
            def result(self):
                pool.open -= 1
                return fn(*args)

        return Pending()


@pytest.mark.parametrize("jobs", [2, 3])
def test_jobs_submit_at_most_one_sweep_per_worker_ahead(monkeypatch, jobs):
    # 3 batches of 2^2 + 1 sweeps: the pool holds the sweep being read and
    # at most one more per worker, never the whole plan
    pools = []

    def pool(max_workers):
        pools.append(_LazyPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(checks.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(checks, "ProcessPoolExecutor", pool)
    reports = run_checks(G_CHECKS, 2, 3, jobs=jobs)
    assert [r.failures for r in reports] == [[]] * 4
    assert len(pools) == 1 and len(pools[0].in_flight) == len(_plan(2, 3)) == 15
    assert max(pools[0].in_flight) == jobs + 1 and pools[0].open == 0


class _Swept(Polynomial):
    """A swept G that a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("names", [[name] for name in G_CHECKS] + [G_CHECKS])
def test_g_checks_hold_one_batch(monkeypatch, names):
    # at the first sweep of batch k + 1, no swept G of batches <= k is alive
    swept = []  # (batch, weak reference) per swept G
    leaks = {}
    original = checks._swept

    def watched(m, n, parents, sweep):
        if sweep.k not in leaks:
            gc.collect()
            leaks[sweep.k] = sorted({k for k, ref in swept if ref() is not None})
        sums = {
            pi: _Swept._wrap(g.m, g.n, g.packer, g.keys, g.coeffs)
            for pi, g in original(m, n, parents, sweep).items()
        }
        swept.extend((sweep.k, weakref.ref(g)) for g in sums.values())
        return sums

    monkeypatch.setattr(checks, "_swept", watched)
    reports = run_checks(names, 3, 4)
    assert [r.failures for r in reports] == [[]] * len(names)
    assert leaks == {k: [] for k in range(1, 5)}


@pytest.mark.parametrize("names", [[name] for name in G_CHECKS] + [G_CHECKS])
def test_all_w_sweeps_sum_other_batches_only_for_the_recurrence(monkeypatch, names):
    # an all-W sweep at A = y1 = 0 sums the recurrence parents that end in
    # another letter only when the recurrence check reads it
    calls = _count_sweeps(monkeypatch)
    reports = run_checks(names, 3, 4)
    assert [r.failures for r in reports] == [[]] * len(names)
    parents = "recurrence" in names
    letters = {beta: [] for beta in all_hybridizations(3)}
    for beta, zero, pis in calls:
        if zero == ORIGIN:
            letters[beta].append(len({pi[-1] for pi in pis}))
    assert letters["WWW"] and any(count > 1 for count in letters["WWW"]) == parents
    assert all(count == 1 for beta, counts in letters.items() if beta != "WWW" for count in counts)


def test_recurrence_check_reaches_a_parent_in_another_batch(monkeypatch):
    # the first ascent of (1, 3) is its last pair, so its parent (3, 1) ends
    # in another letter and is swept with the batch of (1, 3)
    assert schubert.recurrence_parent((1, 3)) == (1, (3, 1))
    _break_weight_sums(monkeypatch, "WW", (1, 3), "B")
    report = run_checks(["recurrence"], 2, 3)[0]
    assert report.failures == ["pi=(1, 3): recurrence disagrees with enumeration"]


# ---------------------------------------------------------------------------
# completeness: every connectivity must be present
# ---------------------------------------------------------------------------


def test_flux_check_fails_when_a_connectivity_has_no_dream(capsys, monkeypatch):
    original = schubert._sweep

    def dropping(*args, **kwargs):
        sums = original(*args, **kwargs)
        if kwargs.get("classes"):
            sums.pop((2, 1), None)
        return sums

    monkeypatch.setattr(schubert, "_sweep", dropping)
    code, check = only_check(capsys, "flux", "--m", "2", "--n", "2")
    assert code == 1 and check["status"] == "FAIL"
    assert "beta=WW pi=(2, 1): no dream enumerated" in check["failures"]


def test_beta_check_fails_when_a_connectivity_is_missing(capsys, monkeypatch):
    original = schubert.reduced_weight_sums

    def dropping(m, n, beta, *rest):
        sums = original(m, n, beta, *rest)
        sums.pop((2, 1), None)
        return sums

    monkeypatch.setattr(schubert, "reduced_weight_sums", dropping)
    code, check = only_check(capsys, "beta", "--m", "2", "--n", "2")
    assert code == 1 and check["status"] == "FAIL"
    assert "beta=WW pi=(2, 1): no dream enumerated" in check["failures"]


# ---------------------------------------------------------------------------
# a check that raises reports FAIL; the other checks still run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc, text",
    [
        (ValueError("labels admit 2 tiles"), "ValueError: labels admit 2 tiles"),
        (RuntimeError("tracing bug"), "RuntimeError: tracing bug"),
        (KeyError((1, 2)), "KeyError: (1, 2)"),
    ],
)
def test_a_check_that_raises_reports_fail(capsys, monkeypatch, exc, text):
    def failing(eqs):
        raise exc

    monkeypatch.setattr(flux, "reconstruct_dream", failing)
    assert cli.main(["verify", "flux", "--m", "2", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"FAIL flux (2,2): {text}\n"
    assert captured.err == ""
    code, checks = verify(capsys, "all", "--m", "2", "--n", "2")
    assert code == 1
    assert [c["status"] for c in checks] == ["PASS"] * 6 + ["FAIL"]
    assert checks[-1] == {"name": "flux (2,2)", "status": "FAIL", "failures": [text]}


@pytest.mark.parametrize("name", list(checks.CHECKS))
def test_every_check_reports_its_failures_then_the_exception(capsys, monkeypatch, name):
    # one exception policy for all seven: the failure yielded before the
    # raise is kept, the exception is the last failure, the others still run
    def failing(m, n, mode):
        yield "broken before the raise"
        raise ValueError("boom")

    monkeypatch.setitem(checks.CHECKS, name, checks.CHECKS[name]._replace(failures=failing))
    failures = ["broken before the raise", "ValueError: boom"]
    pinned = json.loads(_ALL_2_3_JSON)["checks"]
    position = list(checks.CHECKS).index(name)
    code, check = only_check(capsys, name, "--m", "2", "--n", "3")
    assert code == 1
    assert check == {"name": pinned[position]["name"], "status": "FAIL", "failures": failures}
    code, reports = verify(capsys, "all", "--m", "2", "--n", "3")
    assert code == 1
    assert reports == pinned[:position] + [check] + pinned[position + 1:]


def test_memory_error_in_a_check_propagates(capsys, monkeypatch):
    # no FAIL line: the error leaves the check, and the command line ends
    # with exit 2 and one stderr line naming it
    def failing(eqs):
        raise MemoryError

    monkeypatch.setattr(flux, "reconstruct_dream", failing)
    with pytest.raises(MemoryError):
        run_checks(["flux"], 2, 2)
    assert cli.main(["verify", "flux", "--m", "2", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory (MemoryError)\n"
