"""Pipe paths traced tile by tile: the reference for label routing.

``trace_pipes`` follows each pipe through the grid by its own rules, not
through ``grid.ROUTES``, so the label-carrying walk and ``edge_labels`` can
be checked against it.
"""

from __future__ import annotations

from gpd.grid import InvalidDreamError, PipeDream, Tile, pipe_numbering


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
