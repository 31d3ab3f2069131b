"""Per-dream references: pipe paths traced tile by tile, exit elbows, B-degrees.

``trace_pipes`` follows each pipe through the grid by its own rules, not
through ``grid.ROUTES``, so the label-carrying walk and ``edge_labels`` can
be checked against it; ``exit_elbow_columns`` reads off the labels where
each row's own pipe turns North.  ``_weight_b_degree`` and
``_is_nongeneric`` read one dream at a time what ``verify`` counts on the
transfer, and ``leading_degree_faults`` replays the leading form's
per-dream claim over every dream with them.
"""

from __future__ import annotations

from gpd import grid
from gpd.grid import InvalidDreamError, PipeDream, Tile, pipe_numbering
from gpd.schubert import all_hybridizations, inversions, min_extension


def trace_pipes(d: PipeDream) -> dict[int, list[tuple[str, int, int]]]:
    """Path of each pipe as a list of edges ('V', i, j) / ('H', i, j).

    Vertical edge ('V', i, j): row i, position j in [0..n].  Horizontal edge
    ('H', i, j): column j between rows i and i+1, with i = 0 the North
    boundary.  Paths start at the entering side edge and end at the North
    boundary edge of the exit column.
    """
    m, n = d.m, d.n
    phi = pipe_numbering(d.beta)
    paths: dict[int, list[tuple[str, int, int]]] = {}
    for row in range(1, m + 1):
        pipe = phi[row - 1]
        west_going = d.row_type(row) == "W"
        i, j = row, (1 if west_going else n)
        entry = "W" if west_going else "E"
        path = [("V", row, 0 if west_going else n)]
        while True:
            t = d.tile(i, j)
            going = d.row_type(i) == "W"
            side_in = "W" if going else "E"
            side_out = "E" if going else "W"
            if entry == side_in:
                out = "N" if t in (Tile.ELBOW_IN, Tile.DOUBLE_ELBOW) else side_out
            elif entry == "S":
                out = "N" if t in (Tile.STRAIGHT_V, Tile.CROSS) else side_out
            else:
                raise InvalidDreamError(f"pipe enters tile ({i},{j}) from {entry}")
            if out == "N":
                path.append(("H", i - 1, j))
                if i == 1:
                    break
                i -= 1
                entry = "S"
            else:
                path.append(("V", i, j if out == "E" else j - 1))
                j += 1 if out == "E" else -1
                entry = "W" if out == "E" else "E"
        paths[pipe] = path
    return paths


def exit_elbow_columns(d: PipeDream) -> dict[int, int]:
    """Column, per row, of the elbow where that row's entering pipe turns North."""
    labels = grid.edge_labels(d)
    phi = pipe_numbering(d.beta)
    return {
        i: j
        for i in range(1, d.m + 1)
        for j in range(1, d.n + 1)
        if labels[("H", i - 1, j)] == phi[i - 1]
    }


# Per row type, the tiles whose weight has a B term.
B_TILES = {"W": grid.ELBOWS | {Tile.BLANK}, "E": grid.ELBOWS | grid.STRAIGHTS}


def _weight_b_degree(d: PipeDream, b_tiles=B_TILES) -> int:
    """B-degree of a dream weight: its elbows, W-row blanks and E-row straights."""
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


def leading_degree_faults(m: int, n: int, b_tiles=B_TILES) -> dict[tuple, int]:
    """(pi, beta) -> top = mn - inv(w), for each word and row type with a
    nongeneric dream off B-degree top or a generic-only dream at or above
    it, dream by dream."""
    faults = {}
    for beta in all_hybridizations(m):
        for d in grid.enumerate_dreams(m, n, beta):
            pi, crossings = grid.connectivity(d)
            top = m * n - inversions(min_extension(pi, n))
            bdeg = _weight_b_degree(d, b_tiles)
            if (bdeg != top) if _is_nongeneric(d, crossings) else (bdeg >= top):
                faults[pi, beta] = top
    return faults
