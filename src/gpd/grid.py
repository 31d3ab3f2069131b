"""Pipe dream grids: tiles, routing table, dream walk and transfer, weights.

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

Dreams are built cell by cell from one per-cell table: ``walk`` visits
every prefix depth-first for the enumeration stream, whose order is part
of its contract; ``transfer`` sums layer by layer over merged frontier
states instead (the transfer-matrix method), behind counts and weight sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Any, Callable, Collection, Iterator, Sequence

from .poly import Polynomial, alphabet, product


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

# Per row type, the tiles that kill an X entry and weigh A + x - y; every
# other non-elbow tile kills a Y entry and weighs B - x + y, an elbow A + B.
X_TILES = {"W": STRAIGHTS, "E": frozenset({Tile.BLANK})}

TILE_CHARS = ".-|+neb"
_CHAR_TO_TILE = {c: Tile(i) for i, c in enumerate(TILE_CHARS)}

# The routing table: Tile -> (source of North, source of the far side),
# each source EMPTY, SIDE (the pipe entering from the row's side) or SOUTH;
# the sources index the tuple (0, side label, South label).
# Every reader of a tile's routing (label routing and so validation, the
# dream walk, the inverse router ``routing_tiles`` and through it flux
# reconstruction and the crossing flip, the Yang-Baxter row squares and
# diamonds) derives it from here.
EMPTY, SIDE, SOUTH = 0, 1, 2
ROUTES: dict[Tile, tuple[int, int]] = {
    Tile.BLANK: (EMPTY, EMPTY),
    Tile.STRAIGHT_H: (EMPTY, SIDE),
    Tile.STRAIGHT_V: (SOUTH, EMPTY),
    Tile.CROSS: (SOUTH, SIDE),
    Tile.ELBOW_IN: (SIDE, EMPTY),
    Tile.ELBOW_OUT: (EMPTY, SOUTH),
    Tile.DOUBLE_ELBOW: (SIDE, SOUTH),
}

# Tile -> (side_in, south_in, side_out, north_out) occupancies.
_TILE_EDGES = {
    t: (SIDE in r, SOUTH in r, r[1] != EMPTY, r[0] != EMPTY) for t, r in ROUTES.items()
}

# (side_in, south_in) -> admissible tiles, each listed in Tile order.
_TILE_CHOICES: dict[tuple[bool, bool], tuple[Tile, ...]] = {
    (side, south): tuple(t for t in Tile if _TILE_EDGES[t][:2] == (side, south))
    for side in (False, True)
    for south in (False, True)
}


def routing_tiles(side: Any, south: Any, north: Any, far: Any) -> tuple[Tile, ...]:
    """The tiles, in Tile order, that route the side and South labels to
    the North and far-side labels; a label is any value, 0 for no pipe."""
    return _routing_tiles(
        (side != 0, south != 0),
        (north == 0, north == side, north == south),
        (far == 0, far == side, far == south),
    )


@lru_cache(maxsize=None)
def _routing_tiles(occupancy: tuple, north_is: tuple, far_is: tuple) -> tuple[Tile, ...]:
    # north_is[s]: whether the North label equals (0, side, South)[s]; far_is alike
    tiles = _TILE_CHOICES[occupancy]
    return tuple(t for t in tiles if north_is[ROUTES[t][0]] and far_is[ROUTES[t][1]])


# The tile a nongeneric dream never uses, per row type.
NONGENERIC_BAN = {"W": Tile.STRAIGHT_V, "E": Tile.DOUBLE_ELBOW}


def check_beta(beta: str, m: int) -> None:
    if len(beta) != m:
        raise ValueError(f"hybridization {beta!r} must have length {m}")
    bad = set(beta) - {"W", "E"}
    if bad:
        raise ValueError(f"hybridization letters must be W or E, got {sorted(bad)}")


def check_partial_perm(pi: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    word = tuple(int(v) for v in pi)
    if len(word) != m or len(set(word)) != m or not all(1 <= v <= n for v in word):
        raise ValueError(f"{word} is not an injective word of length {m} into [1..{n}]")
    return word


@lru_cache(maxsize=None)
def pipe_numbering(beta: str) -> tuple[int, ...]:
    """Counterclockwise-from-Northwest pipe labels.

    W rows take 1, 2, ... from top to bottom, then E rows continue the count
    from bottom to top.  Entry i-1 is the label of the pipe entering
    physical row i.  Built once per row type; a bad one raises every time.
    """
    check_beta(beta, len(beta))
    west = [i for i, c in enumerate(beta) if c == "W"]
    east = [i for i, c in enumerate(beta) if c == "E"]
    phi = [0] * len(beta)
    for label, i in enumerate(west + east[::-1], start=1):
        phi[i] = label
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


def validate(d: PipeDream) -> dict[tuple[str, int, int], int]:
    """Raise InvalidDreamError unless d satisfies every grid invariant;
    return the pipe labels that checked it (``edge_labels``)."""
    if d.m < 1 or d.n < 1:
        raise InvalidDreamError("grid must be at least 1 x 1")
    if d.m > d.n:
        raise InvalidDreamError(f"m = {d.m} exceeds n = {d.n}")
    check_beta(d.beta, d.m)
    if len(d.tiles) != d.m or any(len(row) != d.n for row in d.tiles):
        raise InvalidDreamError("tile grid has wrong shape")
    return edge_labels(d)


def _exit_word(north: Sequence[int], m: int) -> tuple[int, ...]:
    """pi from the labels on the North boundary, West to East."""
    pi = [0] * m
    for col, pipe in enumerate(north, start=1):
        if pipe:
            pi[pipe - 1] = col
    return tuple(pi)


def _labels_pi(labels: dict[tuple[str, int, int], int], m: int, n: int) -> tuple[int, ...]:
    """pi off the North row of a dream's edge labels: H(0, j) carries i
    exactly when pipe i exits at column j."""
    return _exit_word([labels[("H", 0, j)] for j in range(1, n + 1)], m)


def edge_labels(d: PipeDream) -> dict[tuple[str, int, int], int]:
    """Pipe label of every edge, routed cell by cell through ROUTES.

    Vertical edge ('V', i, j): row i, position j in [0..n].  Horizontal
    edge ('H', i, j): column j between rows i and i+1, with i = 0 the North
    boundary.  An empty edge carries 0.  Rows run bottom to top, each in
    its flow direction.

    Raises InvalidDreamError, naming the edge, at the first tile whose
    routing does not fit the pipes reaching it: V(i,j) is the side edge it
    disagrees with, H(i,j) its South edge (H(m,j) is the South boundary,
    which carries no pipe); a pipe leaving row i on its far side names the
    far-end edge, V(i,n) in a W row and V(i,0) in an E row.
    """
    m, n = d.m, d.n
    phi = pipe_numbering(d.beta)
    labels = {("H", m, j): 0 for j in range(1, n + 1)}
    for i in range(m, 0, -1):
        west_going = d.beta[i - 1] == "W"
        side = phi[i - 1]
        labels[("V", i, 0 if west_going else n)] = side
        for j in range(1, n + 1) if west_going else range(n, 0, -1):
            t = d.tiles[i - 1][j - 1]
            south = labels[("H", i, j)]
            side_in, south_in = _TILE_EDGES[t][:2]
            if side_in != (side != 0):
                edge = j - 1 if west_going else j
                raise InvalidDreamError(f"edge V({i},{edge}) disagrees with tile at ({i},{j})")
            if south_in != (south != 0):
                raise InvalidDreamError(f"edge H({i},{j}) disagrees with tile at ({i},{j})")
            north_src, far_src = ROUTES[t]
            ins = (0, side, south)
            labels[("H", i - 1, j)] = ins[north_src]
            side = ins[far_src]
            labels[("V", i, j if west_going else j - 1)] = side
        if side:
            raise InvalidDreamError(f"edge V({i},{n if west_going else 0}) exits the row")
    return labels


def connectivity(d: PipeDream) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Connectivity word and crossing record of a valid dream.

    Returns (pi, crossings): pi[k-1] is the North exit column of the pipe
    labeled k, and crossings is the sorted multiset of label pairs, one per
    CROSS tile (its side and South pipes).
    """
    labels = edge_labels(d)
    pi = _labels_pi(labels, d.m, d.n)
    crossings = []
    for i in range(1, d.m + 1):
        west_going = d.beta[i - 1] == "W"
        for j in range(1, d.n + 1):
            if d.tiles[i - 1][j - 1] is Tile.CROSS:
                a = labels[("V", i, j - 1 if west_going else j)]
                b = labels[("H", i, j)]
                crossings.append((min(a, b), max(a, b)))
    return pi, tuple(sorted(crossings))


@lru_cache(maxsize=None)
def tile_weight(row_type: str, t: Tile, x_index: int, j: int, m: int, n: int) -> Polynomial:
    """Linear weight of one tile: x_index is the label of the row's pipe.
    Tiles of equal weight share one Polynomial, built once."""
    if t in ELBOWS:
        return _ab_power(m, n, 1)
    return _linear_weight(t in X_TILES[row_type], x_index, j, m, n)


@lru_cache(maxsize=None)
def _linear_weight(plus_a: bool, x_index: int, j: int, m: int, n: int) -> Polynomial:
    a, b, xs, ys = alphabet(m, n)
    x, y = xs[x_index - 1], ys[j - 1]
    return a + x - y if plus_a else b - x + y


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
    return product(d.m, d.n, factors)


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
    labels = validate(d)
    flipped_v = [int(not labels[("V", 1, j)]) for j in range(d.n + 1)]
    new_type = "E" if d.beta == "W" else "W"
    tiles = []
    for j in range(1, d.n + 1):
        if new_type == "W":
            side, far = flipped_v[j - 1], flipped_v[j]
        else:
            side, far = flipped_v[j], flipped_v[j - 1]
        fits = routing_tiles(side, 0, labels[("H", 0, j)], far)
        if not fits:
            raise InvalidDreamError(f"no tile fits flipped edges at (1,{j})")
        tiles.append(fits[0])
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


def _cells(
    m: int, n: int, beta: str, mode: str, targets: Collection[tuple[int, ...]] | None
) -> list[tuple[int, int, int, set[int] | None, set[int] | None, dict, bool]]:
    """The cells in walk order: (i, j, the pipe entering there or 0, the
    labels a tile may put on the North edge and pass on along the row, both
    None without targets, the (tile, *route) choices by (side, South)
    occupancy, less the nongeneric ban and, in a row's last cell, the tiles
    that exit on the far side; nongeneric).

    A label may go on only if some target exits that pipe in a column it
    can still reach.  Pipes leave only through the North boundary, W rows
    move them only East and E rows only West, so a pipe going North from
    column j exits exactly at j with no rows above, in [j, n] below W rows
    only, in [1, j] below E rows only, and anywhere below both; a pipe
    passed on may first go North from any column still ahead in its row.
    No pruned prefix completes to a target, so pruning is exact.  Below the
    top row 0 is always allowed; in it, only where some target leaves
    column j empty.
    """
    if mode not in ("generic", "nongeneric"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got ({m}, {n})")
    check_beta(beta, m)
    nongeneric = mode == "nongeneric"
    phi = pipe_numbering(beta)
    exits = [{w[p] for w in targets or ()} for p in range(m)]  # by label - 1

    def fits(i: int, lo: int, hi: int) -> set[int]:
        """Labels some target exits where going North from [lo, hi] in row i leads."""
        if lo > hi:
            return set()
        above = beta[: i - 1]
        reach = range(1 if "E" in above else lo, (n if "W" in above else hi) + 1)
        return {p for p in range(1, m + 1) if not exits[p - 1].isdisjoint(reach)}

    cells = []
    for i in range(m, 0, -1):
        ban = NONGENERIC_BAN[beta[i - 1]] if nongeneric else None
        west_going = beta[i - 1] == "W"
        cols = list(range(1, n + 1) if west_going else range(n, 0, -1))
        for j in cols:
            last = j == cols[-1]
            choices = {
                occupancy: tuple(
                    (t, *ROUTES[t])
                    for t in tiles
                    if t is not ban and not (last and ROUTES[t][1] != EMPTY)
                )
                for occupancy, tiles in _TILE_CHOICES.items()
            }
            north = far = None
            if targets is not None:
                empty = i > 1 or any(j not in w for w in targets)
                north = fits(i, j, j) | ({0} if empty else set())
                far = (fits(i, j + 1, n) if west_going else fits(i, 1, j - 1)) | {0}
            enter = phi[i - 1] if j == cols[0] else 0
            cells.append((i, j, enter, north, far, choices, nongeneric))
    return cells


def _children(cell, frontier: tuple) -> list:
    """The tiles admissible at ``cell`` after a frontier (side label, North
    labels, crossed pairs), in Tile order: (tile, next frontier) each."""
    _, j, enter, north_ok, far_ok, choices, nongeneric = cell
    side, front, crossed = frontier
    side = enter or side
    south = front[j - 1]
    ins = (0, side, south)
    out = []
    for t, north_src, far_src in choices[side != 0, south != 0]:
        north, far = ins[north_src], ins[far_src]
        if north_ok is not None and (north not in north_ok or far not in far_ok):
            continue
        pairs = crossed
        if nongeneric and t is Tile.CROSS:
            pair = (side, south) if side < south else (south, side)
            if pair in crossed:
                continue
            pairs = crossed | {pair}
        out.append((t, (far, front[: j - 1] + (north,) + front[j:], pairs)))
    return out


def walk(
    m: int,
    n: int,
    beta: str,
    mode: str = "generic",
    targets: Collection[tuple[int, ...]] | None = None,
) -> Iterator[tuple[tuple[int, ...], PipeDream]]:
    """Depth-first walk over all dreams, in stream order; yields (pi, dream).

    Rows run bottom to top, cells in flow order, tiles in Tile order.  The
    frontier carries the pipe label of every North edge (and, nongeneric,
    the pairs that crossed), so pi is read off the top row, not retraced.
    Nongeneric mode skips NONGENERIC_BAN tiles and a second crossing of a
    pair.  With ``targets``, only dreams of a target pi are yielded, and a
    tile is pruned when a pipe it sends North or along its row can reach no
    column where a target exits it: W rows move pipes only East, E rows
    only West, and pipes leave only through the North boundary (``_cells``).
    """
    cells = _cells(m, n, beta, mode, targets)
    # One grid serves the whole walk: a node sets its cell's tile when it
    # is popped, and every node below it is popped before its next sibling.
    rows = [[Tile.BLANK] * n for _ in range(m)]
    # pending nodes: (cell index k, frontier, the tile placed in cell k - 1)
    stack = [(0, (0, (0,) * n, frozenset()), None)]
    while stack:
        k, frontier, tile = stack.pop()
        if k:
            i, j = cells[k - 1][:2]
            rows[i - 1][j - 1] = tile
        if k == m * n:
            word = _exit_word(frontier[1], m)
            if targets is None or word in targets:
                yield word, PipeDream(m, n, beta, tuple(map(tuple, rows)))
            continue
        stack.extend((k + 1, child, t) for t, child in reversed(_children(cells[k], frontier)))


def transfer(
    m: int,
    n: int,
    beta: str,
    step: Callable[[Any, int, int, Tile, int], Any] | None,
    root: Any,
    combine: Callable[[list], Any],
    mode: str = "generic",
    targets: Collection[tuple[int, ...]] | None = None,
) -> dict[tuple[int, ...], Any]:
    """Per-connectivity sums over all dreams (of ``targets``), layer by layer.

    The cells, tiles and exit-reach pruning of ``walk``, exact because W
    rows move pipes only East, E rows only West, and pipes leave only
    North: a layer holds one value per frontier state that can still end
    in a target, keyed by (side label, North labels) and, nongeneric, the
    frozenset of crossed pairs, so prefixes ending in one state share it.
    ``step(value, i, j, tile, side)`` (None: identity) carries a value
    across a tile, where ``side`` is the label entering the cell from the
    row's side (0 for none): at the row's first cell, the row's own pipe.
    Each state is reduced once per cell: ``combine(values)`` turns
    the list of values reaching it into its value (``sum`` counts), and
    groups the last layer's states by word.  A parent is popped once its
    children are taken, so its value lives on only in them.
    """
    cells = _cells(m, n, beta, mode, targets)
    layer: dict[tuple, Any] = {(0, (0,) * n, frozenset()): root}
    for cell in cells:
        i, j, enter = cell[:3]
        nxt: dict[tuple, list] = {}
        for frontier in list(layer):
            value = layer.pop(frontier)
            side = enter or frontier[0]
            for t, key in _children(cell, frontier):
                nxt.setdefault(key, []).append(
                    value if step is None else step(value, i, j, t, side))
            del value
        layer = nxt
        for key in layer:
            layer[key] = combine(layer[key])
    by_word: dict[tuple[int, ...], list] = {}
    for state in list(layer):
        word = _exit_word(state[1], m)
        value = layer.pop(state)
        if targets is None or word in targets:
            by_word.setdefault(word, []).append(value)
    return {word: combine(values) for word, values in by_word.items()}


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
    targets = None if pi is None else {check_partial_perm(pi, m, n)}
    for _, d in walk(m, n, beta, mode, targets):
        yield d


def count_dreams(
    m: int, n: int, beta: str, pi: Sequence[int] | None = None, mode: str = "generic"
) -> int:
    """Number of dreams of the given shape and type (of connectivity ``pi``)."""
    targets = None if pi is None else {check_partial_perm(pi, m, n)}
    return sum(transfer(m, n, beta, None, 1, sum, mode, targets).values())
