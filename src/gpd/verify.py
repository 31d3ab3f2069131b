"""The identity checks behind ``gpd verify``: one table, one driver.

Hybridization independence, the divided-difference recurrence, the
Schubert leading form in B, the mirror identity, Yang-Baxter, the crossing
flip, and the flux components with their conservation law.  Each check is
a generator of failure messages with one entry in ``CHECKS``: its report
title, the generator, and the sweeps of the plan it reads.  ``run_checks``
is the one driver: it runs checks by name and turns each into a
``CheckReport`` through ``_advance``, where an exception inside a check
(MemoryError aside) becomes its last failure, so one broken check hides
no other.  To add a check, write its generator and add one ``CHECKS``
entry, and its name to ``cli._CHECK_NAMES``, which a test pins against
the table.  Checks compare results as they arrive and require every
connectivity to be present.

The global G checks (beta, recurrence, leading, mirror) read G(pi) at
A = y1 = 0 one word batch at a time.  A G check asks for a sweep by
yielding a ``Sweep`` and drops a batch's sums before it asks for a sweep
of the next batch, so no check holds more than one batch:

- Batch k is the words whose last letter is k.  Exit-reach pruning makes
  a sweep of one batch carry only the states that can end in it.
- The recurrence is checked in local form: a decreasing word's G against
  its base case, every other word's G against one ``recurrence_step``
  from the swept G of its parent, at the walk's first ascent.  By
  induction on the inversions from the decreasing words, every swept G
  then equals the recurrence's, which is what comparing with
  ``recurrence_table`` decides.  A parent one swap of the last pair away
  ends in another letter, so when the recurrence check runs, the all-W
  sweep of a batch also sums those parents.
- The mirror compares batch k at A = y1 = 0 with its conjugates at
  B = yn = 0, the words that begin with n+1-k.
- The sweep plan (``_plan``): per batch, each row type at A = y1 = 0,
  then the all-W row type at B = yn = 0; 2^m + 1 sweeps per batch.  Run
  together, as ``verify all`` runs them, the checks share each sweep of
  the plan, which runs once.  No G check walks a dream.

The flux check reads the class sum C(pi) = G(pi) / (A+B)^m at A = y1 = 0,
losing nothing either, in one class sweep per row type outside the plan.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import grid, schubert
from .poly import Polynomial, Var


@dataclass
class CheckReport:
    name: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _advance(report: CheckReport, check, value=None):
    """Run ``check`` on ``value`` until it asks for a sweep, which is
    returned, or ends (None).

    ``value`` is sent, or thrown in if it is an exception, and each failure
    the check yields goes to ``report``.  An exception inside the check,
    other than MemoryError, ends it with the failure ``<ExceptionType>: <text>``.
    """
    try:
        item = check.throw(value) if isinstance(value, Exception) else check.send(value)
        while isinstance(item, str):
            report.fail(item)
            item = next(check)
        return item
    except StopIteration:
        return None
    except MemoryError:
        raise
    except Exception as exc:
        report.fail(f"{type(exc).__name__}: {exc}")
        return None


def _missing(words, beta: str, sums: dict):
    """One failure per word of ``words`` that has no entry in ``sums``."""
    for pi in words:
        if pi not in sums:
            yield f"beta={beta} pi={pi}: no dream enumerated"


def ProcessPoolExecutor(max_workers: int):
    """A process pool; ``concurrent.futures.process`` is imported only when
    a check makes one."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


# ---------------------------------------------------------------------------
# the global G checks: one word batch at a time, on a shared sweep plan
# ---------------------------------------------------------------------------

ORIGIN = schubert.ORIGIN


class Sweep(NamedTuple):
    """One reduced sweep: row type ``beta``, the variables ``zero`` set to
    0, the words of batch ``k`` (``_targets``)."""

    beta: str
    zero: tuple[Var, ...]
    k: int


def _batch(m: int, n: int, k: int) -> list[tuple[int, ...]]:
    """Batch k: the words whose last letter is k, in lexicographic order."""
    return [pi for pi in schubert.all_partial_perms(m, n) if pi[-1] == k]


def _mirror_point(n: int) -> tuple[Var, ...]:
    """B = yn = 0, the mirror image of A = y1 = 0."""
    return Var("B"), Var("y", n)


def _plan(m: int, n: int) -> list[Sweep]:
    """Every sweep a G check reads, in the order they run: per batch, each
    row type at A = y1 = 0, then the all-W row type at B = yn = 0."""
    betas = schubert.all_hybridizations(m)
    return [
        s for k in range(1, n + 1)
        for s in [*(Sweep(b, ORIGIN, k) for b in betas), Sweep("W" * m, _mirror_point(n), k)]
    ]


def _targets(m: int, n: int, sweep: Sweep, parents: bool) -> list[tuple[int, ...]]:
    """The words a sweep sums: batch k at A = y1 = 0, where the all-W row
    type also sums the recurrence parents that end in another letter when
    ``parents`` (the recurrence check reads the sweep); at B = yn = 0, the
    conjugates of batch k, whose first letter is n+1-k."""
    batch = _batch(m, n, sweep.k)
    if sweep.zero != ORIGIN:
        return [schubert.gamma_conjugate(pi, m, n) for pi in batch]
    if not parents or "E" in sweep.beta:
        return batch
    steps = [schubert.recurrence_parent(pi) for pi in batch]
    return batch + [p[1] for p in steps if p and p[1][-1] != sweep.k]


def _swept(m: int, n: int, parents: bool, sweep: Sweep):
    """The sums of one sweep (``_targets``), or the exception (MemoryError
    aside) it raised."""
    try:
        words = _targets(m, n, sweep, parents)
        return schubert.reduced_weight_sums(m, n, sweep.beta, words, sweep.zero)
    except MemoryError:
        raise
    except Exception as exc:
        return exc


def _restrict(sums: dict, words) -> dict:
    """The entries of ``sums`` for ``words``."""
    return {pi: sums[pi] for pi in words if pi in sums}


def _beta_failures(m: int, n: int, mode: str | None):
    """All hybridizations give the same per-connectivity weight sums.

    Per batch, the first row type's sums must cover the batch, and each
    other row type's sums are compared with them as they arrive."""
    betas = schubert.all_hybridizations(m)
    disagree = set()
    for k in range(1, n + 1):
        batch = _batch(m, n, k)
        reference = _restrict((yield Sweep(betas[0], ORIGIN, k)), batch)
        yield from _missing(batch, betas[0], reference)
        for beta in betas[1:]:
            if (yield Sweep(beta, ORIGIN, k)) != reference and beta not in disagree:
                disagree.add(beta)
                yield f"beta={beta} disagrees with beta={betas[0]}"
        del reference


def _recurrence_failures(m: int, n: int, mode: str | None):
    """The recurrence in local form: each decreasing word's G is its base
    case, and every other word's G is one ``recurrence_step`` from its
    parent's swept G, at the walk's first ascent (``recurrence_parent``)."""
    for k in range(1, n + 1):
        sums = yield Sweep("W" * m, ORIGIN, k)
        for pi in _batch(m, n, k):
            if pi not in sums:
                yield f"pi={pi}: no dream enumerated"
                continue
            parent = schubert.recurrence_parent(pi)
            if parent is None:
                expected = schubert.base_case(m, n, pi, *ORIGIN)
            elif parent[1] in sums:
                expected = schubert.recurrence_step(sums[parent[1]], parent[0], *ORIGIN)
            else:
                continue  # a parent with no dream fails in its own batch
            if expected != sums[pi]:
                yield f"pi={pi}: recurrence disagrees with enumeration"
        del sums


# Per row type, the tiles whose weight has a B term: a dream's B-degree counts them.
_B_TILES = {row_type: frozenset(grid.Tile) - x for row_type, x in grid.X_TILES.items()}


def _b_degree_counts(m: int, n: int, beta: str) -> list[dict[tuple[int, ...], int]]:
    """Each word's generic and nongeneric dreams d counted by B-degree, as
    the sum of 2^((mn + 1) deg_B(d)).  At most two tiles fit a cell, so a
    word has at most 2^(mn) dreams: no digit of mn + 1 bits carries."""
    bits = m * n + 1
    b_tiles = [_B_TILES[row_type] for row_type in beta]

    def step(count, i, j, t, side):
        return count << bits if t in b_tiles[i - 1] else count

    return [grid.transfer(m, n, beta, step, 1, sum, mode) for mode in ("generic", "nongeneric")]


def _leading_failures(m: int, n: int, mode: str | None):
    """The B-leading form of every G(pi), for every hybridization.

    Per (pi, beta): the nongeneric sum matches the independent double
    Schubert construction S_w, G(pi) has B-degree mn - inv(w) and leading
    coefficient S_w with x_i -> A + x_i, and only nongeneric dreams attain
    that degree.  Degree and coefficient are read off G(pi) at A = y1 = 0,
    batch by batch.  B enters G(pi) only through u0 = A+B, so the
    evaluation keeps its B-degree; and S_w(A + x; y) = S_w(A + x - y1;
    y - y1), double Schubert polynomials being translation invariant, lies
    in the ring on which the evaluation is injective, so the expected
    coefficient is S_w at y1 = 0.  Per row type, one nongeneric sweep and
    two dream counts by B-degree (``_b_degree_counts``) serve every pi:
    the generic count has no digit above the top one, and the nongeneric
    count is its top digit.
    """
    words = schubert.all_partial_perms(m, n)
    betas = schubert.all_hybridizations(m)
    expected = {}
    for pi in words:
        ext = schubert.min_extension(pi, n)
        oracle = schubert.double_schubert_oracle(ext, m, n)
        top = m * n - schubert.inversions(ext)
        expected[pi] = top, oracle, oracle.at_zero(Var("y", 1))
    for k in range(1, n + 1):
        batch = _batch(m, n, k)
        for beta in betas:
            sums = yield Sweep(beta, ORIGIN, k)
            yield from _missing(batch, beta, sums)
            for pi in batch:
                if pi not in sums:
                    continue
                top, _, at_origin = expected[pi]
                deg, coeff = sums[pi].leading_form(Var("B"))
                if deg != top:
                    yield f"pi={pi} beta={beta}: B-degree {deg} != {top}"
                if coeff != at_origin:
                    yield f"pi={pi} beta={beta}: leading coefficient mismatch"
            del sums
    bits = m * n + 1
    for beta in betas:
        nongeneric_sums = schubert.nongeneric_sums_by_pi(m, n, beta)
        generic, nongeneric = _b_degree_counts(m, n, beta)
        for pi in words:
            top, oracle, _ = expected[pi]
            if nongeneric_sums.get(pi, Polynomial.zero(m, n)) != oracle:
                yield f"pi={pi} beta={beta}: nongeneric sum differs from oracle"
            from_top = generic.get(pi, 0) >> bits * top
            if from_top >> bits or nongeneric.get(pi, 0) != from_top << bits * top:
                yield (f"pi={pi} beta={beta}: the dreams of B-degree {top} are not "
                       "exactly the nongeneric ones, or some dream exceeds it")


def _mirror_failures(m: int, n: int, mode: str | None):
    """G(pi) is the mirror image of G(gamma.pi.gamma), batch by batch.

    The mirror takes the point A = y1 = 0 to B = yn = 0, so G(pi) at
    A = y1 = 0 is compared with the mirror of G(gamma.pi.gamma) at
    B = yn = 0, swept for the conjugates of the batch.  The mirror keeps
    the ring on which both evaluations are injective, so the comparison is
    exact.  Each pair is dropped once compared; a word missing from
    either sweep is reported and its pair skipped.
    """
    for k in range(1, n + 1):
        batch = _batch(m, n, k)
        sums = _restrict((yield Sweep("W" * m, ORIGIN, k)), batch)
        mirrored = yield Sweep("W" * m, _mirror_point(n), k)
        for pi in batch:
            conj = schubert.gamma_conjugate(pi, m, n)
            g = sums.pop(pi, None)
            if g is None or conj not in mirrored:
                yield f"pi={pi if g is None else conj}: no dream enumerated"
            elif g != schubert.mirror_substitution(mirrored[conj]):
                yield f"pi={pi}: mirror identity fails against {conj}"
        del sums, mirrored, g


# ---------------------------------------------------------------------------
# the checks that read no sweep
# ---------------------------------------------------------------------------


def _ybe_failures(m: int, n: int, mode: str | None):
    """Class-by-class symbolic equality of the west and east cluster sums.

    ``mode`` is 'ww' (two W rows, rightward diamond), 'we' (a W row over an
    E row, upward diamond), or None for both.
    """
    from . import yangbaxter

    for md in [mode] if mode else ["ww", "we"]:
        for boundary, cls, lhs, rhs in yangbaxter.class_identities(md):
            if lhs != rhs:
                yield (
                    f"boundary {list(boundary)} class {cls}: "
                    f"{lhs.format()} != {rhs.format()}"
                )


def verify_ybe(mode: str | None = None) -> CheckReport:
    """The Yang-Baxter check (``_ybe_failures``) for ``mode``."""
    report = CheckReport("yang-baxter")
    _advance(report, _ybe_failures(0, 0, mode))
    return report


def _crossing_failures(m: int, n: int, mode: str | None):
    """crossing_flip is a weight-preserving involution on single-pipe rows
    of width at most 5."""
    for width in range(1, 6):
        for beta in ("W", "E"):
            for d in grid.enumerate_dreams(1, width, beta):
                flipped = grid.crossing_flip(d)
                if flipped.beta == d.beta:
                    yield f"{grid.serialize(d)!r}: row type did not flip"
                if grid.crossing_flip(flipped) != d:
                    yield f"{grid.serialize(d)!r}: flip is not an involution"
                if grid.weight(flipped) != grid.weight(d):
                    yield f"{grid.serialize(d)!r}: flip changed the weight"


def _conservation_failures(m: int, n: int, beta: str):
    """Flux conservation at every square, as Z-linear combinations.

    W rows satisfy West + South = East + North and E rows the mirror
    East + South = West + North; both sides are compared as multisets of
    markers.
    """
    from . import flux
    from .flux import EdgeId

    fluxes = flux.flux_grid(m, n, beta)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            west = fluxes[EdgeId("V", i, j - 1)]
            east = fluxes[EdgeId("V", i, j)]
            north = fluxes[EdgeId("H", i - 1, j)]
            south = fluxes[EdgeId("H", i, j)]
            if beta[i - 1] == "E":
                west, east = east, west
            if Counter([*west, *south]) != Counter([*east, *north]):
                yield f"square ({i},{j}) violates conservation"


def conservation_check(m: int, n: int, beta: str) -> CheckReport:
    """Flux conservation for row type ``beta`` (``_conservation_failures``)."""
    report = CheckReport(f"flux conservation ({m},{n},{beta})")
    _advance(report, _conservation_failures(m, n, beta))
    return report


def _flux_failures(m: int, n: int, mode: str | None):
    """Flux conservation, and per hybridization: every dream is rebuilt from
    its flux labels, and (A+B)^m times each word's class sum is G(pi) at
    A = y1 = 0.  One class sweep sums the classes; no dream's class is read
    off its equation set, as ``flux.component_class`` reads it."""
    from . import flux

    table = schubert.recurrence_table(m, n, ORIGIN)
    ab_m = grid._ab_power(m, n, m).at_zero(*ORIGIN)
    for beta in schubert.all_hybridizations(m):
        yield from _conservation_failures(m, n, beta)
        for d in grid.enumerate_dreams(m, n, beta):
            if flux.reconstruct_dream(flux.variety_equations(d)) != d:
                yield f"beta={beta}: reconstruction failed for a dream"
        classes = schubert._sweep(m, n, beta, None, ORIGIN, classes=True)
        yield from _missing(schubert.all_partial_perms(m, n), beta, classes)
        for pi, cls in classes.items():
            if ab_m * cls != table[pi]:
                yield f"beta={beta} pi={pi}: component classes do not sum to G"


# ---------------------------------------------------------------------------
# the table and its driver
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    """A check's entry in ``CHECKS``."""

    title: str  # the report's name, formatted with m and n
    failures: Callable  # (m, n, mode) -> failures and, for a G check, Sweep requests
    reads: Callable[[Sweep], bool]  # whether it reads a sweep of the plan


# Every check by name, in report order.
CHECKS: dict[str, Check] = {
    "beta": Check("beta-independence ({m},{n})", _beta_failures, lambda s: s.zero == ORIGIN),
    "recurrence": Check("recurrence ({m},{n})", _recurrence_failures,
                        lambda s: s.zero == ORIGIN and "E" not in s.beta),
    "leading": Check("leading-form ({m},{n})", _leading_failures, lambda s: s.zero == ORIGIN),
    "mirror": Check("mirror ({m},{n})", _mirror_failures, lambda s: "E" not in s.beta),
    "ybe": Check("yang-baxter", _ybe_failures, lambda s: False),
    "crossing": Check("crossing-flip (n<=5)", _crossing_failures, lambda s: False),
    "flux": Check("flux ({m},{n})", _flux_failures, lambda s: False),
}


def run_checks(names, m: int, n: int, mode: str | None = None,
               jobs: int = 1) -> list[CheckReport]:
    """The reports of the named checks, in ``names`` order; ``mode`` is the
    Yang-Baxter check's.

    Each check runs (``_advance``) until it asks for a sweep or ends.  The
    sweeps of the plan that some check reads then run once each, in plan
    order, and each check waiting for one is sent its sums, or thrown its
    exception, before the next runs, so no sweep's sums outlive the checks
    that hold them.  ``jobs`` > 1 runs the sweeps in a pool of at most that
    many processes, capped by the CPUs and the row types; the results are
    read in plan order, with at most one sweep per worker submitted past
    the one the checks read (``_ahead``).
    """
    entries = [CHECKS[name] for name in names]
    reports = [CheckReport(e.title.format(m=m, n=n)) for e in entries]
    checks = [e.failures(m, n, mode) for e in entries]
    asked = [_advance(report, check) for report, check in zip(reports, checks)]
    plan = [s for s in _plan(m, n) if any(e.reads(s) for e in entries)]
    workers = min(jobs, os.cpu_count() or 1, 2**m) if plan else 1
    pooled = workers > 1
    pool = ProcessPoolExecutor(max_workers=workers) if pooled else contextlib.nullcontext()
    with pool:
        sweep = functools.partial(_swept, m, n, CHECKS["recurrence"] in entries)
        results = _ahead(pool, sweep, plan, workers) if pooled else map(sweep, plan)
        for s in plan:
            value = next(results)
            for c in [c for c, a in enumerate(asked) if a == s]:
                asked[c] = _advance(reports[c], checks[c], value)
            del value
    for report, a in zip(reports, asked):
        if a is not None:
            report.fail(f"RuntimeError: {a} is not in the sweep plan")
    return reports


def _ahead(pool, fn, items, depth: int):
    """``fn`` over ``items`` in ``pool``, results in order, with at most
    ``depth`` calls submitted past the one whose result is read, so finished
    results never pile up beyond that."""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
