"""Flux variables on grid edges, component equations, and dream reconstruction.

Each grid edge carries a formal flux: a set of markers (r, j), one marker
standing for the product X_rj * Y_jr of matrix entries.  Fluxes start at
zero on the outer W/E/S boundary edges and grow by the marker of each
square they cross, which makes a conservation law hold at every square.

A pipe dream turns the formal fluxes into labels: an edge traversed by the
pipe labeled i carries t_i, every other edge carries 0.  The labels are
``grid.edge_labels``, keyed by grid's ('V'|'H', i, j) edge tuples, which
hash and compare equal to the EdgeIds naming the same edges.  Together
with the vanishing X and Y entries read off the straight and blank tiles,
these labels are the defining data of the dream's degeneration component;
the labeling is faithful enough that the dream can be rebuilt from it by
joining, in every square, the edges that carry the same nonzero flux.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import grid
from .grid import PipeDream, Tile, pipe_numbering
from .poly import Polynomial, product


class EdgeId(NamedTuple):
    """V(i, j): vertical edge of row i at position j in [0..n] (0 = West
    boundary).  H(i, j): horizontal edge in column j between rows i and
    i+1, with i = 0 the North boundary and i = m the South one."""

    kind: str
    row: int
    col: int

    def __str__(self) -> str:
        return f"{self.kind}({self.row},{self.col})"


Marker = tuple[int, int]  # (r, j) standing for X_rj * Y_jr
FluxExpr = frozenset[Marker]


def flux_grid(m: int, n: int, beta: str) -> dict[EdgeId, FluxExpr]:
    """Formal flux of every edge for the given shape and hybridization.

    Vertical fluxes in a W row sum the markers East of the edge; in an E
    row, the markers up to and including the edge's column.  Horizontal
    fluxes sum the markers of the column below the edge.  The entering side
    edge of row i therefore carries the full flux of its pipe and the far
    side carries zero.
    """
    grid.check_beta(beta, m)
    phi = pipe_numbering(beta)
    out: dict[EdgeId, FluxExpr] = {}
    for i in range(1, m + 1):
        p = phi[i - 1]
        for j in range(n + 1):
            if beta[i - 1] == "W":
                markers = {(p, jp) for jp in range(j + 1, n + 1)}
            else:
                markers = {(p, jp) for jp in range(1, j + 1)}
            out[EdgeId("V", i, j)] = frozenset(markers)
    for i in range(m + 1):
        for j in range(1, n + 1):
            out[EdgeId("H", i, j)] = frozenset(
                (phi[k - 1], j) for k in range(i + 1, m + 1)
            )
    return out


def format_flux(expr: Iterable[Marker]) -> str:
    """Render a flux as x<r><j>y<j><r>+... with markers sorted; empty is 0."""
    parts = [f"x{r}{j}y{j}{r}" for r, j in sorted(expr)]
    return "+".join(parts) if parts else "0"


@dataclass
class EquationSet:
    """Defining data of one degeneration component.

    zero_x holds pairs (r, j) with X_rj = 0, zero_y pairs (j, r) with
    Y_jr = 0, and flux maps every edge, by grid's ('V'|'H', i, j) tuple, to
    its label (0 or the pipe number).
    Exactly n - 1 of the implied equations per row are independent: one per
    column except where the row's own pipe exits North.  The killed entries
    are the linear ones and the rest, one per elbow other than a row's exit
    elbow, are quadratics; ``component_class`` multiplies their weights.
    """

    m: int
    n: int
    beta: str
    pi: tuple[int, ...]
    zero_x: frozenset[tuple[int, int]]
    zero_y: frozenset[tuple[int, int]]
    flux: dict[tuple[str, int, int], int]

    def independent_count(self) -> int:
        elbows = self.m * self.n - len(self.zero_x) - len(self.zero_y)
        return len(self.zero_x) + len(self.zero_y) + elbows - self.m


def variety_equations(d: PipeDream) -> EquationSet:
    """Equations of the component attached to a dream.

    The tiles of ``grid.X_TILES`` kill an X entry, every other non-elbow
    tile a Y entry; every edge's flux is asserted equal to its pipe label.
    The labels are routed once, and pi is read off their North row.
    """
    phi = pipe_numbering(d.beta)
    zero_x: set[tuple[int, int]] = set()
    zero_y: set[tuple[int, int]] = set()
    for i in range(1, d.m + 1):
        p = phi[i - 1]
        for j in range(1, d.n + 1):
            t = d.tile(i, j)
            if t in grid.ELBOWS:
                continue
            if t in grid.X_TILES[d.row_type(i)]:
                zero_x.add((p, j))
            else:
                zero_y.add((j, p))
    labels = grid.edge_labels(d)
    return EquationSet(
        m=d.m,
        n=d.n,
        beta=d.beta,
        pi=grid._labels_pi(labels, d.m, d.n),
        zero_x=frozenset(zero_x),
        zero_y=frozenset(zero_y),
        flux=labels,
    )


def flux_system_rank(eqs: EquationSet) -> int:
    """Rank over Q of the linear system behind an equation set.

    Variables are the mn markers and the m pipe fluxes t_i; equations are
    the per-edge assertions (formal flux = label) plus one vanishing marker
    per killed X or Y entry.  For equations coming from a dream the rank is
    mn: every marker is pinned to 0 or to some t_i.
    """
    m, n = eqs.m, eqs.n
    fluxes = flux_grid(m, n, eqs.beta)
    nvars = m * n + m
    midx = {(r, j): (r - 1) * n + (j - 1) for r in range(1, m + 1) for j in range(1, n + 1)}
    rows: list[list[Fraction]] = []
    for edge, expr in fluxes.items():
        row = [Fraction(0)] * nvars
        for mk in expr:
            row[midx[mk]] += 1
        label = eqs.flux[edge]
        if label:
            row[m * n + label - 1] -= 1
        if any(row):
            rows.append(row)
    for r, j in eqs.zero_x:
        row = [Fraction(0)] * nvars
        row[midx[(r, j)]] = Fraction(1)
        rows.append(row)
    for j, r in eqs.zero_y:
        row = [Fraction(0)] * nvars
        row[midx[(r, j)]] = Fraction(1)
        rows.append(row)
    rank = 0
    for col in range(nvars):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                factor = rows[k][col] / lead
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def component_class(eqs: EquationSet) -> Polynomial:
    """Equivariant class of a dream's component, read off its equation set.

    The component is a complete intersection, so its class is the product
    of its generators' weights: A + x_r - y_j per killed X_rj, B - x_r + y_j
    per killed Y_jr, and A + B per quadratic, of which there are
    independent_count() - |zero_x| - |zero_y|.  (A+B)^m times the class is
    the dream's weight.
    """
    m, n = eqs.m, eqs.n
    quadratics = eqs.independent_count() - len(eqs.zero_x) - len(eqs.zero_y)
    factors = [grid._ab_power(m, n, quadratics)]
    factors += [grid._linear_weight(True, r, j, m, n) for r, j in eqs.zero_x]
    factors += [grid._linear_weight(False, r, j, m, n) for j, r in eqs.zero_y]
    return product(m, n, factors)


def _tiles_from_labels(
    m: int, n: int, beta: str, labels: Mapping[tuple[str, int, int], object]
) -> PipeDream:
    """Per square, the one tile (grid.routing_tiles) routing the side and
    South labels to the North and far-side ones; the result is not
    validated.

    Labels may be any hashable values (pipe numbers, or reduced flux values
    when rebuilding from a table); 0, None and empty sets count as zero.
    """
    tiles: list[tuple[Tile, ...]] = []
    for i in range(1, m + 1):
        west_going = beta[i - 1] == "W"
        row: list[Tile] = []
        for j in range(1, n + 1):
            west, east = labels[("V", i, j - 1)], labels[("V", i, j)]
            side, far = (west, east) if west_going else (east, west)
            south, north = labels[("H", i, j)], labels[("H", i - 1, j)]
            matches = grid.routing_tiles(side or 0, south or 0, north or 0, far or 0)
            if len(matches) != 1:
                raise ValueError(
                    f"square ({i},{j}): labels admit {len(matches)} tiles"
                )
            row.append(matches[0])
        tiles.append(tuple(row))
    return PipeDream(m, n, beta, tuple(tiles))


def reconstruct_dream(eqs: EquationSet) -> PipeDream:
    """Rebuild the dream from its flux labels.

    In every square, edges carrying the same nonzero label are joined by a
    pipe; the unique tile realizing that pairing is selected.  Routing the
    result's own labels (``grid.edge_labels``, which raises
    InvalidDreamError, a ValueError, on a bad tiling) must then reproduce
    the recorded label of every edge, and the recorded pi must be the one
    those labels carry.
    """
    d = _tiles_from_labels(eqs.m, eqs.n, eqs.beta, eqs.flux)
    if grid.edge_labels(d) != eqs.flux or grid._labels_pi(eqs.flux, eqs.m, eqs.n) != eqs.pi:
        raise ValueError("the rebuilt dream does not carry the recorded labels and pi")
    return d


def dream_from_flux_table(
    m: int, n: int, beta: str, table: Mapping[EdgeId, FluxExpr]
) -> PipeDream:
    """Rebuild a dream from a (reduced) flux-value table.

    Edges whose entries coincide as nonzero sets are treated as carrying the
    same pipe; empty entries are empty edges.  With no recorded labels to
    compare, the result is checked by ``grid.validate``.
    """
    labels = {e: (frozenset(v) if v else 0) for e, v in table.items()}
    d = _tiles_from_labels(m, n, beta, labels)
    grid.validate(d)
    return d


def _resolve_rewrites(rewrites: Mapping[Marker, Marker]) -> dict[Marker, Marker]:
    resolved = {}
    for src in rewrites:
        seen = {src}
        dst = rewrites[src]
        while dst in rewrites:
            if dst in seen:
                raise ValueError(f"rewrite cycle through {dst}")
            seen.add(dst)
            dst = rewrites[dst]
        resolved[src] = dst
    return resolved


def reduced_flux_table(
    m: int,
    n: int,
    beta: str,
    zeros: Iterable[tuple[str, int, int]] = (),
    rewrites: Mapping[Marker, Marker] | None = None,
) -> dict[EdgeId, FluxExpr]:
    """Flux table with killed markers deleted and identifications applied.

    ``zeros`` names matrix entries, ('X', r, j) or ('Y', j, r); any marker
    containing a named entry is deleted.  ``rewrites`` maps markers to
    canonical representatives (applied transitively), the way a binomial
    generator identifies two markers.
    """
    killed: set[Marker] = set()
    for kind, a, first in zeros:
        if kind.upper() == "X":
            killed.add((a, first))
        elif kind.upper() == "Y":
            killed.add((first, a))
        else:
            raise ValueError(f"zero entry kind must be X or Y, got {kind!r}")
    mapping = _resolve_rewrites(rewrites or {})
    out = {}
    for edge, expr in flux_grid(m, n, beta).items():
        reduced = {mapping.get(mk, mk) for mk in expr if mk not in killed}
        out[edge] = frozenset(reduced)
    return out
