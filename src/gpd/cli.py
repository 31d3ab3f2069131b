"""Batch command line over enumeration, polynomials, verification and fluxes.

Every command writes byte-deterministic output: the enumeration stream
order is fixed, polynomial text is canonical, JSON is emitted with sorted
keys, and --jobs parallelism only distributes work whose results are
collected back in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from . import flux as fluxmod
from . import grid, schubert, yangbaxter

from .schubert import CheckReport

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _parse_pi(text: str, m: int, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse connectivity {text!r}; expected e.g. 1,3,4")
    return schubert.check_partial_perm(values, m, n)


def _guard_work(m: int, n: int, max_work: int) -> None:
    if m * n > max_work:
        raise UsageError(
            f"grid size {m}x{n} exceeds --max-work {max_work}; "
            "raise --max-work to run anyway"
        )


def _emit(args, *parts: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cmd_enumerate(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    pi = _parse_pi(args.pi, args.m, args.n) if args.pi else None
    dreams = list(grid.enumerate_dreams(args.m, args.n, args.beta, pi, args.mode))
    if args.format == "json":
        payload = {"count": len(dreams), "dreams": [grid.serialize(d) for d in dreams]}
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, "\n".join(grid.serialize(d) for d in dreams))
    return 0


def _cmd_count(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    pi = _parse_pi(args.pi, args.m, args.n) if args.pi else None
    count = grid.count_dreams(args.m, args.n, args.beta, pi, args.mode)
    if args.format == "json":
        _emit(args, json.dumps({"count": count}, sort_keys=True) + "\n")
    else:
        _emit(args, f"{count}\n")
    return 0


def _cmd_poly(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    beta = args.beta or "W" * args.m
    pi = _parse_pi(args.pi, args.m, args.n)
    g = schubert.generic_polynomial(args.m, args.n, beta, pi)
    if args.format == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "beta": beta,
            "pi": list(pi),
            "polynomial": g.format(),
        }
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, g.format(), "\n")
    return 0


def _cmd_schubert(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    beta = args.beta or "W" * args.m
    pi = _parse_pi(args.pi, args.m, args.n)
    s = schubert.schubert_sum(args.m, args.n, pi, beta)
    if args.format == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "beta": beta,
            "pi": list(pi),
            "polynomial": s.format(),
        }
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, s.format(), "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _beta_report_for(task: tuple[int, int, str]) -> dict:
    m, n, beta = task
    return schubert.reduced_weight_sums(m, n, beta)


def check_beta_independence(m: int, n: int, jobs: int = 1) -> CheckReport:
    """All hybridizations give the same per-connectivity weight sums."""
    report = CheckReport(f"beta-independence ({m},{n})")
    betas = schubert.all_hybridizations(m)
    tasks = [(m, n, beta) for beta in betas]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_beta_report_for, tasks))
    else:
        results = [_beta_report_for(t) for t in tasks]
    reference = results[0]
    for beta, sums in zip(betas[1:], results[1:]):
        if sums != reference:
            report.fail(f"beta={beta} disagrees with beta={betas[0]}")
    return report


def check_recurrence(m: int, n: int) -> CheckReport:
    report = CheckReport(f"recurrence ({m},{n})")
    sums = schubert.weight_sums_by_pi(m, n, "W" * m)
    table = schubert.recurrence_table(m, n)
    for pi in schubert.all_partial_perms(m, n):
        if pi not in sums:
            report.fail(f"pi={pi}: no dream enumerated")
        elif table[pi] != sums[pi]:
            report.fail(f"pi={pi}: recurrence disagrees with enumeration")
    return report


def check_leading(m: int, n: int) -> CheckReport:
    report = CheckReport(f"leading-form ({m},{n})")
    for pi in schubert.all_partial_perms(m, n):
        sub = schubert.b_leading_check(m, n, pi)
        report.failures.extend(sub.failures)
    return report


def check_mirror(m: int, n: int) -> CheckReport:
    report = CheckReport(f"mirror ({m},{n})")
    sums = schubert.weight_sums_by_pi(m, n, "W" * m)
    words = schubert.all_partial_perms(m, n)
    report.failures.extend(schubert.mirror_failures(m, n, words, sums))
    return report


def check_ybe(mode: str | None = None) -> CheckReport:
    report = CheckReport("yang-baxter")
    for md in [mode] if mode else ["ww", "we"]:
        sub = yangbaxter.verify_ybe(md)
        report.failures.extend(sub.failures)
    return report


def check_crossing(n_max: int = 5) -> CheckReport:
    """crossing_flip is a weight-preserving involution on single-pipe rows."""
    report = CheckReport(f"crossing-flip (n<={n_max})")
    for n in range(1, n_max + 1):
        for beta in ("W", "E"):
            for d in grid.enumerate_dreams(1, n, beta):
                flipped = grid.crossing_flip(d)
                if flipped.beta == d.beta:
                    report.fail(f"{grid.serialize(d)!r}: row type did not flip")
                if grid.crossing_flip(flipped) != d:
                    report.fail(f"{grid.serialize(d)!r}: flip is not an involution")
                if grid.weight(flipped) != grid.weight(d):
                    report.fail(f"{grid.serialize(d)!r}: flip changed the weight")
    return report


def check_flux(m: int, n: int) -> CheckReport:
    report = CheckReport(f"flux ({m},{n})")
    table = schubert.recurrence_table(m, n)
    for beta in schubert.all_hybridizations(m):
        sub = fluxmod.conservation_check(m, n, beta)
        report.failures.extend(sub.failures)
        sums: dict[tuple[int, ...], object] = {}
        for d in grid.enumerate_dreams(m, n, beta):
            eqs = fluxmod.variety_equations(d)
            if fluxmod.reconstruct_dream(eqs) != d:
                report.fail(f"beta={beta}: reconstruction failed for a dream")
                continue
            contribution = grid._ab_power(m, n, m) * fluxmod.component_class(d)
            if eqs.pi in sums:
                sums[eqs.pi] = sums[eqs.pi] + contribution
            else:
                sums[eqs.pi] = contribution
        for pi, total in sums.items():
            if total != table[pi]:
                report.fail(f"beta={beta} pi={pi}: component classes do not sum to G")
    return report


_CHECKS: dict[str, Callable[[argparse.Namespace], CheckReport]] = {
    "beta": lambda a: check_beta_independence(a.m, a.n, a.jobs),
    "recurrence": lambda a: check_recurrence(a.m, a.n),
    "leading": lambda a: check_leading(a.m, a.n),
    "mirror": lambda a: check_mirror(a.m, a.n),
    "ybe": lambda a: check_ybe(a.mode),
    "crossing": lambda a: check_crossing(),
    "flux": lambda a: check_flux(a.m, a.n),
}

_ALL_CHECKS = ("beta", "recurrence", "leading", "mirror", "ybe", "crossing", "flux")
_SHOWN_FAILURES = 5  # per failing check, in both output formats


def _cmd_verify(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    names = _ALL_CHECKS if args.check == "all" else (args.check,)
    reports = [_CHECKS[name](args) for name in names]
    if args.format == "json":
        payload = {
            "checks": [
                {
                    "name": r.name,
                    "status": "PASS" if r.ok else "FAIL",
                    "failures": r.failures[:_SHOWN_FAILURES],
                }
                for r in reports
            ]
        }
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = []
        for r in reports:
            if r.ok:
                lines.append(f"PASS {r.name}")
            else:
                lines.append(f"FAIL {r.name}: {r.failures[0]}")
                lines.extend(f"     {extra}" for extra in r.failures[1:_SHOWN_FAILURES])
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# flux rendering
# ---------------------------------------------------------------------------


def render_flux_lattice(m: int, n: int, table: dict[fluxmod.EdgeId, object]) -> str:
    """(2m+1) x (2n+1) text lattice of flux entries.

    Odd lattice rows hold the vertical-edge fluxes of one grid row, even
    rows the horizontal-edge fluxes between grid rows.
    """
    cells: list[list[str]] = [["" for _ in range(2 * n + 1)] for _ in range(2 * m + 1)]
    for edge, expr in table.items():
        text = fluxmod.format_flux(expr)
        if edge.kind == "V":
            cells[2 * edge.row - 1][2 * edge.col] = text
        else:
            cells[2 * edge.row][2 * edge.col - 1] = text
    widths = [
        max((len(cells[r][c]) for r in range(2 * m + 1)), default=0)
        for c in range(2 * n + 1)
    ]
    lines = []
    for row in cells:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        lines.append(line)
    return "\n".join(lines) + "\n"


def _cmd_flux(args) -> int:
    if args.dream:
        with open(args.dream, encoding="utf-8") as fh:
            d = grid.parse_dream(fh.read())
        eqs = fluxmod.variety_equations(d)
        if args.format == "json":
            payload = {
                "m": eqs.m,
                "n": eqs.n,
                "beta": eqs.beta,
                "pi": list(eqs.pi),
                "zero_x": sorted(map(list, eqs.zero_x)),
                "zero_y": sorted(map(list, eqs.zero_y)),
                "flux_labels": {
                    str(e): v for e, v in sorted(eqs.flux.items()) if v
                },
                "independent_equations": eqs.independent_count(),
            }
            _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            lines = [f"connectivity: {','.join(map(str, eqs.pi))}"]
            lines.append(
                "zero X entries: "
                + (", ".join(f"x{r}{j}" for r, j in sorted(eqs.zero_x)) or "none")
            )
            lines.append(
                "zero Y entries: "
                + (", ".join(f"y{j}{r}" for j, r in sorted(eqs.zero_y)) or "none")
            )
            lines.append(f"independent equations: {eqs.independent_count()}")
            lines.append("flux labels (nonzero):")
            for e, v in sorted(eqs.flux.items()):
                if v:
                    lines.append(f"  {e} = t{v}")
            _emit(args, "\n".join(lines) + "\n")
        return 0
    _guard_work(args.m, args.n, args.max_work)
    table = fluxmod.flux_grid(args.m, args.n, args.beta)
    if args.format == "json":
        payload = {str(e): fluxmod.format_flux(v) for e, v in table.items()}
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, render_flux_lattice(args.m, args.n, table))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, need_beta=True, need_pi=False):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    if need_beta:
        sp.add_argument("--beta", type=str, default=None, help="row types, e.g. WEW")
    sp.add_argument(
        "--pi",
        type=str,
        required=need_pi,
        default=None,
        help="connectivity as comma list, e.g. 1,3,4",
    )
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", type=str, default=None, help="write output to a file")
    sp.add_argument(
        "--max-work",
        type=int,
        default=30,
        help="refuse full enumeration when m*n exceeds this (default 30)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpd", description="hybrid generic pipe dream toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="stream dreams in the canonical order")
    _add_common(sp)
    sp.add_argument("--mode", choices=("generic", "nongeneric"), default="generic")
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("count", help="count dreams")
    _add_common(sp)
    sp.add_argument("--mode", choices=("generic", "nongeneric"), default="generic")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("poly", help="generic pipe dream polynomial")
    _add_common(sp, need_pi=True)
    sp.set_defaults(func=_cmd_poly)

    sp = sub.add_parser("schubert", help="nongeneric (double Schubert) sum")
    _add_common(sp, need_pi=True)
    sp.set_defaults(func=_cmd_schubert)

    sp = sub.add_parser("verify", help="run identity checks; exit 1 on failure")
    sp.add_argument("check", choices=("all",) + _ALL_CHECKS)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--mode", choices=("ww", "we"), default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--max-work", type=int, default=30)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("flux", help="flux tables and component equations")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--beta", type=str, default=None)
    sp.add_argument("--dream", type=str, default=None, help="dream file to analyze")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--max-work", type=int, default=30)
    sp.set_defaults(func=_cmd_flux)

    return parser


def _validate(args) -> None:
    if getattr(args, "command", None) in ("enumerate", "count", "poly", "schubert"):
        if args.m < 1 or args.m > args.n:
            raise UsageError(f"need 1 <= m <= n, got ({args.m}, {args.n})")
        if args.beta is None:
            args.beta = "W" * args.m
        grid.check_beta(args.beta, args.m)
    if args.command == "verify":
        if args.m < 1 or args.m > args.n:
            raise UsageError(f"need 1 <= m <= n, got ({args.m}, {args.n})")
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
    if args.command == "flux" and not args.dream:
        if args.m is None or args.n is None or args.beta is None:
            raise UsageError("flux needs either --dream or all of --m, --n, --beta")
        if args.m < 1 or args.m > args.n:
            raise UsageError(f"need 1 <= m <= n, got ({args.m}, {args.n})")
        grid.check_beta(args.beta, args.m)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
