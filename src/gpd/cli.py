"""Batch command line over enumeration, polynomials, verification and fluxes.

Every command writes byte-deterministic output: the enumeration stream
order is fixed, polynomial text is canonical, JSON is emitted with sorted
keys, and --jobs parallelism only distributes work whose results are
collected back in a fixed order.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import grid

if TYPE_CHECKING:
    from .flux import EdgeId

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _parse_pi(text: str, m: int, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse connectivity {text!r}; expected e.g. 1,3,4")
    return grid.check_partial_perm(values, m, n)


def _guard_work(m: int, n: int, max_work: int) -> None:
    if m * n > max_work:
        raise UsageError(
            f"grid size {m}x{n} exceeds --max-work {max_work}; "
            "raise --max-work to run anyway"
        )


def _emit(args, *parts: str) -> None:
    _write(args, parts)


def _emit_json(args, payload, indent: int | None = 2) -> None:
    """``payload`` as JSON with sorted keys; only commands that print JSON
    import ``json``."""
    import json

    _emit(args, json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def _write(args, parts: Iterable[str]) -> None:
    """Write the parts in order, to --out or stdout, as they come."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cmd_enumerate(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    pi = _parse_pi(args.pi, args.m, args.n) if args.pi else None
    dreams = grid.enumerate_dreams(args.m, args.n, args.beta, pi, args.mode)
    if args.format == "json":
        texts = [grid.serialize(d) for d in dreams]
        payload = {"count": len(texts), "dreams": texts}
        _emit_json(args, payload)
    else:
        _write(args, _joined(grid.serialize(d) for d in dreams))
    return 0


def _joined(texts: Iterable[str]) -> Iterator[str]:
    """The pieces of "\\n".join(texts), yielded as the texts arrive."""
    sep = ""
    for text in texts:
        yield sep + text
        sep = "\n"


def _cmd_count(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    pi = _parse_pi(args.pi, args.m, args.n) if args.pi else None
    count = grid.count_dreams(args.m, args.n, args.beta, pi, args.mode)
    if args.format == "json":
        _emit_json(args, {"count": count}, indent=None)
    else:
        _emit(args, f"{count}\n")
    return 0


def _cmd_poly(args) -> int:
    """Print one polynomial of a connectivity: G(pi) for ``poly``, the
    nongeneric sum for ``schubert`` (``args.compute`` names the function)."""
    from . import schubert

    _guard_work(args.m, args.n, args.max_work)
    pi = _parse_pi(args.pi, args.m, args.n)
    g = getattr(schubert, args.compute)(m=args.m, n=args.n, beta=args.beta, pi=pi)
    if args.format == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "beta": args.beta,
            "pi": list(pi),
            "polynomial": g.format(),
        }
        _emit_json(args, payload)
    else:
        _write(args, itertools.chain(g.format_chunks(), ("\n",)))
    return 0


# ---------------------------------------------------------------------------
# verify: the checks of gpd.verify by name, and the rendering of their reports
# ---------------------------------------------------------------------------

# ``verify.CHECKS``, spelled out so that building the parser imports no ``verify``
_CHECK_NAMES = ("beta", "recurrence", "leading", "mirror", "ybe", "crossing", "flux")
_SHOWN_FAILURES = 5  # per failing check, in both output formats


def _cmd_verify(args) -> int:
    _guard_work(args.m, args.n, args.max_work)
    from . import verify

    names = _CHECK_NAMES if args.check == "all" else (args.check,)
    reports = verify.run_checks(names, args.m, args.n, args.mode, args.jobs)
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
        _emit_json(args, payload)
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


def render_flux_lattice(m: int, n: int, table: dict[EdgeId, object]) -> str:
    """(2m+1) x (2n+1) text lattice of flux entries.

    Odd lattice rows hold the vertical-edge fluxes of one grid row, even
    rows the horizontal-edge fluxes between grid rows.
    """
    from . import flux as fluxmod

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
    from . import flux as fluxmod

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
                    str(fluxmod.EdgeId(*e)): v for e, v in sorted(eqs.flux.items()) if v
                },
                "independent_equations": eqs.independent_count(),
            }
            _emit_json(args, payload)
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
                    lines.append(f"  {fluxmod.EdgeId(*e)} = t{v}")
            _emit(args, "\n".join(lines) + "\n")
        return 0
    _guard_work(args.m, args.n, args.max_work)
    table = fluxmod.flux_grid(args.m, args.n, args.beta)
    if args.format == "json":
        payload = {str(e): fluxmod.format_flux(v) for e, v in table.items()}
        _emit_json(args, payload)
    else:
        _emit(args, render_flux_lattice(args.m, args.n, table))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, need_pi=False):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
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
    sp.set_defaults(func=_cmd_poly, compute="generic_polynomial")

    sp = sub.add_parser("schubert", help="nongeneric (double Schubert) sum")
    _add_common(sp, need_pi=True)
    sp.set_defaults(func=_cmd_poly, compute="schubert_sum")

    sp = sub.add_parser("verify", help="run identity checks; exit 1 on failure")
    sp.add_argument("check", choices=("all", *_CHECK_NAMES))
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
    if getattr(args, "dream", None):
        return
    if args.command == "flux" and None in (args.m, args.n, args.beta):
        raise UsageError("flux needs either --dream or all of --m, --n, --beta")
    if not 1 <= args.m <= args.n:
        raise UsageError(f"need 1 <= m <= n, got ({args.m}, {args.n})")
    if args.command == "verify":
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        return
    if args.beta is None:
        args.beta = "W" * args.m
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
    except MemoryError as exc:  # a backstop for an admitted input that does not fit
        print(f"error: out of memory ({type(exc).__name__}) {exc}".rstrip(), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
