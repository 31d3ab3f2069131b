"""The identity checks behind ``gpd verify``, each written once.

Hybridization independence, the divided-difference recurrence, the
Schubert leading form in B, the mirror identity, Yang-Baxter, the crossing
flip, and the flux components with their conservation law.  Each check is
a generator of failure messages that ``_check`` turns into a function
returning a ``CheckReport``; an exception inside a check (MemoryError
aside) becomes its last failure, so one broken check hides no other.
Checks compare results as they arrive and require every connectivity to
be present.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
from collections import Counter
from dataclasses import dataclass, field

from . import grid, schubert
from .grid import PipeDream, Tile
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


def _check(title: str):
    """Turn a generator of failure messages into a check returning a report.

    The report is named ``title`` formatted with the call's arguments,
    defaults included.  An exception inside the check, other than
    MemoryError, ends it with the failure ``<ExceptionType>: <text>``.
    """

    def wrap(failures):
        signature = inspect.signature(failures)

        @functools.wraps(failures)
        def check(*args, **kwargs) -> CheckReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            report = CheckReport(title.format(**bound.arguments))
            try:
                report.failures.extend(failures(*args, **kwargs))
            except MemoryError:
                raise
            except Exception as exc:
                report.fail(f"{type(exc).__name__}: {exc}")
            return report

        return check

    return wrap


def _missing(m: int, n: int, beta: str, sums: dict):
    """One failure per connectivity word that has no entry in ``sums``."""
    for pi in schubert.all_partial_perms(m, n):
        if pi not in sums:
            yield f"beta={beta} pi={pi}: no dream enumerated"


def ProcessPoolExecutor(max_workers: int):
    """A process pool; ``concurrent.futures.process`` is imported only when
    a check makes one."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


@_check("beta-independence ({m},{n})")
def check_beta_independence(m: int, n: int, jobs: int = 1):
    """All hybridizations give the same per-connectivity weight sums.

    The first row type's reduced sums must cover every word; each other
    row type's sums are compared with them as they arrive, then dropped.
    ``jobs`` > 1 computes them in a pool of at most that many processes,
    capped by the CPUs and the row types.
    """
    betas = schubert.all_hybridizations(m)
    sweep = functools.partial(schubert.reduced_weight_sums, m, n)
    workers = min(jobs, os.cpu_count() or 1, len(betas))
    pooled = workers > 1
    pool = ProcessPoolExecutor(max_workers=workers) if pooled else contextlib.nullcontext()
    with pool:
        results = pool.map(sweep, betas) if pooled else map(sweep, betas)
        reference = next(results)
        yield from _missing(m, n, betas[0], reference)
        for beta, sums in zip(betas[1:], results):
            if sums != reference:
                yield f"beta={beta} disagrees with beta={betas[0]}"


@_check("recurrence ({m},{n})")
def check_recurrence(m: int, n: int):
    """The recurrence from the decreasing base cases gives every G(pi),
    both compared at A = y1 = 0 (see ``schubert.reduced_weight_sums``)."""
    sums = schubert.reduced_weight_sums(m, n, "W" * m)
    table = schubert.recurrence_table(m, n, zero=schubert.ORIGIN)
    for pi in schubert.all_partial_perms(m, n):
        if pi not in sums:
            yield f"pi={pi}: no dream enumerated"
        elif table[pi] != sums[pi]:
            yield f"pi={pi}: recurrence disagrees with enumeration"


def _weight_b_degree(d: PipeDream) -> int:
    """B-degree of a dream weight: its elbows, W-row blanks and E-row straights."""
    b_tiles = {"W": grid.ELBOWS | {Tile.BLANK}, "E": grid.ELBOWS | grid.STRAIGHTS}
    return sum(
        t in b_tiles[row_type] for row_type, row in zip(d.beta, d.tiles) for t in row
    )


def _is_nongeneric(d: PipeDream, crossings: tuple | None = None) -> bool:
    """No banned tile, no pair crossing twice (``grid.connectivity``'s record)."""
    for i in range(1, d.m + 1):
        if grid.NONGENERIC_BAN[d.row_type(i)] in d.tiles[i - 1]:
            return False
    if crossings is None:
        _, crossings = grid.connectivity(d)
    return len(set(crossings)) == len(crossings)


@_check("leading-form ({m},{n})")
def check_leading(m: int, n: int):
    """The B-leading form of every G(pi), for every hybridization.

    Per (pi, beta): the nongeneric sum matches the independent double
    Schubert construction S_w, G(pi) has B-degree mn - inv(w) and leading
    coefficient S_w with x_i -> A + x_i, and only nongeneric dreams attain
    that degree.  Degree and coefficient are read off G(pi) at A = y1 = 0.
    B enters G(pi) only through u0 = A+B, so the evaluation keeps its
    B-degree; and S_w(A + x; y) = S_w(A + x - y1; y - y1), double Schubert
    polynomials being translation invariant, lies in the ring on which the
    evaluation is injective, so the expected coefficient is S_w at y1 = 0.
    One reduced sweep, one nongeneric sweep and one dream enumeration per
    row type serve every pi.
    """
    words = schubert.all_partial_perms(m, n)
    expected = {}
    for pi in words:
        ext = schubert.min_extension(pi, n)
        oracle = schubert.double_schubert_oracle(ext, m, n)
        top = m * n - schubert.inversions(ext)
        expected[pi] = top, oracle, oracle.at_zero(Var("y", 1))
    for beta in schubert.all_hybridizations(m):
        sums = schubert.reduced_weight_sums(m, n, beta)
        nongeneric = schubert.nongeneric_sums_by_pi(m, n, beta)
        yield from _missing(m, n, beta, sums)
        for pi in words:
            top, oracle, at_origin = expected[pi]
            s = nongeneric.get(pi, Polynomial.zero(m, n))
            if s != oracle:
                yield f"pi={pi} beta={beta}: nongeneric sum differs from oracle"
            if pi not in sums:
                continue
            deg, coeff = sums.pop(pi).leading_form(Var("B"))
            if deg != top:
                yield f"pi={pi} beta={beta}: B-degree {deg} != {top}"
            if coeff != at_origin:
                yield f"pi={pi} beta={beta}: leading coefficient mismatch"
        for d in grid.enumerate_dreams(m, n, beta):
            pi, crossings = grid.connectivity(d)
            top, bdeg = expected[pi][0], _weight_b_degree(d)
            if _is_nongeneric(d, crossings):
                if bdeg != top:
                    yield f"pi={pi} beta={beta}: nongeneric dream of B-degree {bdeg}"
            elif bdeg >= top:
                yield f"pi={pi} beta={beta}: generic-only dream reaches B-degree {bdeg}"


@_check("mirror ({m},{n})")
def check_mirror(m: int, n: int):
    """G(pi) is the mirror image of G(gamma.pi.gamma), from two sweeps.

    The mirror takes the point A = y1 = 0 to B = yn = 0, so G(pi) at
    A = y1 = 0 is compared with the mirror of G(gamma.pi.gamma) at
    B = yn = 0.  The mirror keeps the ring on which both evaluations are
    injective, so the comparison is exact.
    """
    sums = schubert.reduced_weight_sums(m, n, "W" * m)
    mirrored = schubert.reduced_weight_sums(m, n, "W" * m, zero=(Var("B"), Var("y", n)))
    for pi in schubert.all_partial_perms(m, n):
        conj = schubert.gamma_conjugate(pi, m, n)
        if sums[pi] != schubert.mirror_substitution(mirrored[conj]):
            yield f"pi={pi}: mirror identity fails against {conj}"


@_check("yang-baxter")
def verify_ybe(mode: str | None = None):
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


@_check("crossing-flip (n<={n_max})")
def check_crossing(n_max: int = 5):
    """crossing_flip is a weight-preserving involution on single-pipe rows."""
    for n in range(1, n_max + 1):
        for beta in ("W", "E"):
            for d in grid.enumerate_dreams(1, n, beta):
                flipped = grid.crossing_flip(d)
                if flipped.beta == d.beta:
                    yield f"{grid.serialize(d)!r}: row type did not flip"
                if grid.crossing_flip(flipped) != d:
                    yield f"{grid.serialize(d)!r}: flip is not an involution"
                if grid.weight(flipped) != grid.weight(d):
                    yield f"{grid.serialize(d)!r}: flip changed the weight"


@_check("flux conservation ({m},{n},{beta})")
def conservation_check(m: int, n: int, beta: str):
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


@_check("flux ({m},{n})")
def check_flux(m: int, n: int):
    """Flux conservation, and per hybridization: every dream is rebuilt from
    its flux labels, and (A+B)^m times the sum of the component classes is
    G(pi) for every connectivity."""
    from . import flux

    table = schubert.recurrence_table(m, n)
    ab_m = grid._ab_power(m, n, m)
    for beta in schubert.all_hybridizations(m):
        yield from conservation_check(m, n, beta).failures
        classes = {}
        for d in grid.enumerate_dreams(m, n, beta):
            eqs = flux.variety_equations(d)
            if flux.reconstruct_dream(eqs) != d:
                yield f"beta={beta}: reconstruction failed for a dream"
                continue
            cls = flux.component_class(eqs)
            classes[eqs.pi] = classes[eqs.pi] + cls if eqs.pi in classes else cls
        yield from _missing(m, n, beta, classes)
        for pi, total in classes.items():
            if ab_m * total != table[pi]:
                yield f"beta={beta} pi={pi}: component classes do not sum to G"
