"""Pipe dream grids: tiles, hybrid row types, enumeration, tracing, weights.

A pipe dream is an m x n grid of tiles (row 1 at the North) together with a
hybridization: a string over {W, E} declaring, per row, on which side that
row's pipe enters.  Pipes propagate North/East in W rows and North/West in
E rows, never exiting a row on its far side, so every pipe eventually leaves
through the North boundary.

Tile kinds are encoded by their routing relative to the row's flow
direction ("side" means West in a W row and East in an E row):

    BLANK         no pipe
    STRAIGHT_H    side -> far side
    STRAIGHT_V    South -> North
    CROSS         side -> far side and South -> North (the pipes cross)
    ELBOW_IN      side -> North
    ELBOW_OUT     South -> far side
    DOUBLE_ELBOW  side -> North and South -> far side (no crossing)

The same seven kinds therefore serve both row types; mirroring a dream
left-to-right flips every row type and leaves the kinds alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Iterator, Sequence

from . import _packed
from .poly import Polynomial, alphabet


class InvalidDreamError(ValueError):
    """Grid data violating the pipe dream invariants; names the first bad edge."""


class Tile(IntEnum):
    # Order matters: it is the tie-break order of the enumeration stream.
    BLANK = 0
    STRAIGHT_H = 1
    STRAIGHT_V = 2
    CROSS = 3
    ELBOW_IN = 4
    ELBOW_OUT = 5
    DOUBLE_ELBOW = 6


ELBOWS = frozenset({Tile.ELBOW_IN, Tile.ELBOW_OUT, Tile.DOUBLE_ELBOW})
STRAIGHTS = frozenset({Tile.STRAIGHT_H, Tile.STRAIGHT_V, Tile.CROSS})

TILE_CHARS = ".-|+neb"
_CHAR_TO_TILE = {c: Tile(i) for i, c in enumerate(TILE_CHARS)}

# (side_in, south_in) -> admissible tiles, each listed in Tile order.
_TILE_CHOICES: dict[tuple[bool, bool], tuple[Tile, ...]] = {
    (False, False): (Tile.BLANK,),
    (True, False): (Tile.STRAIGHT_H, Tile.ELBOW_IN),
    (False, True): (Tile.STRAIGHT_V, Tile.ELBOW_OUT),
    (True, True): (Tile.CROSS, Tile.DOUBLE_ELBOW),
}

# Tile -> (side_in, south_in, side_out, north_out) occupancies.
_TILE_EDGES = {
    Tile.BLANK: (False, False, False, False),
    Tile.STRAIGHT_H: (True, False, True, False),
    Tile.STRAIGHT_V: (False, True, False, True),
    Tile.CROSS: (True, True, True, True),
    Tile.ELBOW_IN: (True, False, False, True),
    Tile.ELBOW_OUT: (False, True, True, False),
    Tile.DOUBLE_ELBOW: (True, True, True, True),
}


def check_beta(beta: str, m: int) -> None:
    if len(beta) != m:
        raise ValueError(f"hybridization {beta!r} must have length {m}")
    bad = set(beta) - {"W", "E"}
    if bad:
        raise ValueError(f"hybridization letters must be W or E, got {sorted(bad)}")


def pipe_numbering(beta: str) -> tuple[int, ...]:
    """Counterclockwise-from-Northwest pipe labels.

    W rows take 1, 2, ... from top to bottom, then E rows continue the count
    from bottom to top.  Entry i-1 is the label of the pipe entering
    physical row i.
    """
    check_beta(beta, len(beta))
    m = len(beta)
    phi = [0] * m
    label = 1
    for i in range(m):
        if beta[i] == "W":
            phi[i] = label
            label += 1
    for i in range(m - 1, -1, -1):
        if beta[i] == "E":
            phi[i] = label
            label += 1
    return tuple(phi)


@dataclass(frozen=True)
class PipeDream:
    """An m x n tiling with hybridization; row 1 is the North row."""

    m: int
    n: int
    beta: str
    tiles: tuple[tuple[Tile, ...], ...]

    def tile(self, i: int, j: int) -> Tile:
        """Tile at row i, column j (both 1-based)."""
        return self.tiles[i - 1][j - 1]

    def row_type(self, i: int) -> str:
        return self.beta[i - 1]

    def __str__(self) -> str:
        return serialize(self)


def _edge_occupancies(d: PipeDream) -> tuple[list[list[bool]], list[list[bool]]]:
    """Vertical and horizontal edge occupancy implied by the tiles.

    vert[i-1][j] is the vertical edge of row i at position j (0 = West
    boundary, n = East boundary); horiz[i][j-1] is the horizontal edge in
    column j between rows i and i+1 (0 = North boundary).

    Raises InvalidDreamError, naming the first bad edge, if the tiles
    disagree on a shared edge or break a boundary rule.
    """
    m, n = d.m, d.n
    vert = [[False] * (n + 1) for _ in range(m)]
    south = [[False] * n for _ in range(m)]
    north = [[False] * n for _ in range(m)]
    for i in range(1, m + 1):
        west_going = d.row_type(i) == "W"
        cols = range(1, n + 1) if west_going else range(n, 0, -1)
        side = True  # entering side edge carries the row's pipe
        entry_edge = 0 if west_going else n
        vert[i - 1][entry_edge] = True
        for j in cols:
            side_in, south_in, side_out, north_out = _TILE_EDGES[d.tile(i, j)]
            if side_in != side:
                edge = (j - 1) if west_going else j
                raise InvalidDreamError(
                    f"edge V({i},{edge}) disagrees with tile at ({i},{j})"
                )
            side = side_out
            vert[i - 1][j if west_going else j - 1] = side_out
            if i == m and south_in:
                raise InvalidDreamError(f"edge H({m},{j}) enters from the South")
            south[i - 1][j - 1] = south_in
            north[i - 1][j - 1] = north_out
        if side:
            exit_edge = n if west_going else 0
            raise InvalidDreamError(f"edge V({i},{exit_edge}) exits the row")
    # the shared edge between rows i and i+1 must agree from both sides
    for i in range(1, m):
        for j in range(1, n + 1):
            if south[i - 1][j - 1] != north[i][j - 1]:
                raise InvalidDreamError(f"edge H({i},{j}) mismatch between rows")
    horiz = north + [[False] * n]
    return vert, horiz


def validate(d: PipeDream) -> None:
    """Raise InvalidDreamError unless d satisfies every grid invariant."""
    if d.m < 1 or d.n < 1:
        raise InvalidDreamError("grid must be at least 1 x 1")
    if d.m > d.n:
        raise InvalidDreamError(f"m = {d.m} exceeds n = {d.n}")
    check_beta(d.beta, d.m)
    if len(d.tiles) != d.m or any(len(row) != d.n for row in d.tiles):
        raise InvalidDreamError("tile grid has wrong shape")
    _edge_occupancies(d)


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


def connectivity(d: PipeDream) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Connectivity word and crossing record of a valid dream.

    Returns (pi, crossings): pi[k-1] is the North exit column of the pipe
    labeled k, and crossings is the sorted multiset of label pairs, one per
    CROSS tile traversed by two pipes.
    """
    paths = trace_pipes(d)
    pi = [0] * d.m
    for pipe, path in paths.items():
        pi[pipe - 1] = path[-1][2]
    # crossing pairs: for each CROSS tile find its horizontal and vertical pipes
    horizontal: dict[tuple[int, int], int] = {}
    vertical: dict[tuple[int, int], int] = {}
    for pipe, path in paths.items():
        for (k1, i1, j1), (k2, i2, j2) in zip(path, path[1:]):
            if k1 == "V" and k2 == "V":
                horizontal[(i1, max(j1, j2))] = pipe
            elif k1 == "H" and k2 == "H":
                vertical[(i1, j1)] = pipe  # climbed through the cell in row i1
    crossings = []
    for i in range(1, d.m + 1):
        for j in range(1, d.n + 1):
            if d.tile(i, j) == Tile.CROSS:
                a = horizontal.get((i, j))
                b = vertical.get((i, j))
                if a is None or b is None:
                    raise InvalidDreamError(f"cross at ({i},{j}) missing a pipe")
                crossings.append((min(a, b), max(a, b)))
    return tuple(pi), tuple(sorted(crossings))


@lru_cache(maxsize=None)
def tile_weight(row_type: str, t: Tile, x_index: int, j: int, m: int, n: int) -> Polynomial:
    """Linear weight of one tile: x_index is the label of the row's pipe."""
    a, b, xs, ys = alphabet(m, n)
    if t in ELBOWS:
        return a + b
    x, y = xs[x_index - 1], ys[j - 1]
    straightish = t in STRAIGHTS
    if (row_type == "W") == straightish:
        return a + x - y  # W straight / E blank
    return b - x + y  # W blank / E straight


@lru_cache(maxsize=None)
def _ab_power(m: int, n: int, e: int) -> Polynomial:
    a, b, _, _ = alphabet(m, n)
    return (a + b) ** e


def weight(d: PipeDream) -> Polynomial:
    """Product of the mn tile weights; homogeneous of degree mn."""
    phi = pipe_numbering(d.beta)
    elbows = sum(1 for row in d.tiles for t in row if t in ELBOWS)
    factors = [_ab_power(d.m, d.n, elbows)]
    for i in range(1, d.m + 1):
        for j in range(1, d.n + 1):
            t = d.tile(i, j)
            if t not in ELBOWS:
                factors.append(tile_weight(d.row_type(i), t, phi[i - 1], j, d.m, d.n))
    return _packed.product(d.m, d.n, factors)


def mirror(d: PipeDream) -> PipeDream:
    """Left-right mirror image: columns reversed, every row type flipped.

    Tile kinds are unchanged because they are encoded relative to the flow
    direction.  Connectivity transforms as pi -> gamma_n . pi . gamma_m.
    """
    flipped = "".join("E" if c == "W" else "W" for c in d.beta)
    tiles = tuple(tuple(reversed(row)) for row in d.tiles)
    return PipeDream(d.m, d.n, flipped, tiles)


def crossing_flip(d: PipeDream) -> PipeDream:
    """Flip all vertical edges of a single-row dream and rederive tiles.

    The row type flips W <-> E, the North edges stay put, and the weight
    (with the same x parameter) is preserved.  Requires a 1 x n dream, which
    holds exactly one pipe.
    """
    if d.m != 1:
        raise ValueError("crossing_flip applies to single-row dreams")
    validate(d)
    vert, horiz = _edge_occupancies(d)
    if sum(vert[0]) + sum(horiz[0]) < 1:
        raise InvalidDreamError("row carries no pipe")
    flipped_v = [not v for v in vert[0]]
    north = horiz[0]
    new_type = "E" if d.beta == "W" else "W"
    tiles = []
    for j in range(1, d.n + 1):
        if new_type == "W":
            side_in, side_out = flipped_v[j - 1], flipped_v[j]
        else:
            side_in, side_out = flipped_v[j], flipped_v[j - 1]
        pattern = (side_in, side_out, north[j - 1])
        if pattern == (False, False, False):
            tiles.append(Tile.BLANK)
        elif pattern == (True, True, False):
            tiles.append(Tile.STRAIGHT_H)
        elif pattern == (True, False, True):
            tiles.append(Tile.ELBOW_IN)
        else:
            raise InvalidDreamError(f"no tile fits flipped edges at (1,{j})")
    return PipeDream(1, d.n, new_type, (tuple(tiles),))


def serialize(d: PipeDream) -> str:
    """Dream file format: 'm n', the hybridization, then one row per line."""
    lines = [f"{d.m} {d.n}", d.beta]
    for row in d.tiles:
        lines.append("".join(TILE_CHARS[t] for t in row))
    return "\n".join(lines) + "\n"


def parse_dream(text: str) -> PipeDream:
    """Inverse of serialize; validates and names the first bad edge."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise InvalidDreamError("expected at least a size line and a hybridization")
    try:
        m_str, n_str = lines[0].split()
        m, n = int(m_str), int(n_str)
    except ValueError:
        raise InvalidDreamError(f"bad size line {lines[0]!r}") from None
    beta = lines[1].strip()
    rows = [line.strip() for line in lines[2:] if line.strip()]
    if len(rows) != m:
        raise InvalidDreamError(f"expected {m} tile rows, got {len(rows)}")
    tiles = []
    for line in rows:
        if len(line) != n:
            raise InvalidDreamError(f"row {line!r} has length {len(line)}, expected {n}")
        try:
            tiles.append(tuple(_CHAR_TO_TILE[c] for c in line))
        except KeyError as exc:
            raise InvalidDreamError(f"unknown tile character {exc.args[0]!r}") from None
    d = PipeDream(m, n, beta, tuple(tiles))
    validate(d)
    return d


def row_fillings(
    row_type: str, south: Sequence[bool], mode: str = "generic"
) -> Iterator[tuple[tuple[Tile, ...], tuple[bool, ...]]]:
    """All fillings of one row over the given South edges, in stream order.

    Yields (tiles, north) pairs.  W rows scan West to East, E rows East to
    West, carrying the side edge; the trailing side edge must end empty.
    Nongeneric mode drops STRAIGHT_V from W rows and DOUBLE_ELBOW from E
    rows.
    """
    n = len(south)
    west_going = row_type == "W"
    banned = (
        None
        if mode == "generic"
        else (Tile.STRAIGHT_V if west_going else Tile.DOUBLE_ELBOW)
    )
    order = range(n) if west_going else range(n - 1, -1, -1)
    cols = list(order)
    tiles: list[Tile] = [Tile.BLANK] * n
    north: list[bool] = [False] * n

    def rec(k: int, side: bool) -> Iterator[tuple[tuple[Tile, ...], tuple[bool, ...]]]:
        if k == n:
            if not side:
                yield tuple(tiles), tuple(north)
            return
        j = cols[k]
        for t in _TILE_CHOICES[(side, south[j])]:
            if t == banned:
                continue
            _, _, side_out, north_out = _TILE_EDGES[t]
            tiles[j] = t
            north[j] = north_out
            yield from rec(k + 1, side_out)
        tiles[j] = Tile.BLANK
        north[j] = False

    yield from rec(0, True)


def enumerate_dreams(
    m: int,
    n: int,
    beta: str,
    pi: Sequence[int] | None = None,
    mode: str = "generic",
) -> Iterator[PipeDream]:
    """Deterministic stream of all dreams of the given shape and type.

    Rows are generated bottom-to-top, each scanned in its flow direction,
    with ties broken in Tile order; the resulting stream order is part of
    the contract.  With ``pi``, only dreams of that connectivity are
    yielded.  Nongeneric mode applies the restricted tile set and rejects
    dreams in which some pair of pipes crosses twice.
    """
    if mode not in ("generic", "nongeneric"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got ({m}, {n})")
    check_beta(beta, m)
    target = None
    if pi is not None:
        target = tuple(pi)
        if sorted(target) != sorted(set(target)) or not all(
            1 <= v <= n for v in target
        ) or len(target) != m:
            raise ValueError(f"{target} is not an injective word into [1..{n}]")

    rows: list[tuple[Tile, ...]] = [()] * m

    def build(i: int, south: tuple[bool, ...]) -> Iterator[PipeDream]:
        if i == 0:
            d = PipeDream(m, n, beta, tuple(rows))
            got_pi, crossings = connectivity(d)
            if target is not None and got_pi != target:
                return
            if mode == "nongeneric" and len(set(crossings)) != len(crossings):
                return
            yield d
            return
        for tiles, north in row_fillings(beta[i - 1], south, mode):
            rows[i - 1] = tiles
            yield from build(i - 1, north)

    yield from build(m, (False,) * n)


def count_dreams(
    m: int, n: int, beta: str, pi: Sequence[int] | None = None, mode: str = "generic"
) -> int:
    return sum(1 for _ in enumerate_dreams(m, n, beta, pi, mode))
