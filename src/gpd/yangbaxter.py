"""Vertex tables for row squares and diamonds, and Yang-Baxter verification.

The row tiles define two seven-entry vertex tables (W squares and E
squares); two auxiliary diamonds, one transporting pipes rightward and one
upward, make the hybridization arguments local.  Each table entry routes
occupied input channels bijectively to output channels and carries a linear
weight in Z[A, B, x, x', y]; these polynomials live in the (m, n) = (2, 1)
context with x = x1, x' = x2, y = y1.

A cluster is one diamond wired to a stack of two row squares.  The
Yang-Baxter identity states that the diamond can be moved from the west
side of the stack to the east side without changing any class sum: for
every assignment of pipes to the external in-edges and every induced
in-to-out matching, the sums of weight products over internal states agree.
``class_identities`` lists both sides of every class for the WW mode (two
W rows, rightward diamond) and the WE mode (a W row over an E row, upward
diamond); ``gpd.verify.verify_ybe`` checks that they are equal.

Each of the four cluster layouts is a wire list: its three tiles in
evaluation order, each with the named wires into its two in slots and out
of its two out slots.  Wires named in_* and out_* are the cluster's
external channels; every other wire is written by one tile and read by a
later one.  ``cluster_sum`` walks the list, carrying the pipe id on each
wire written so far.

Every table is the grid's tile table: routes from ``grid.ROUTES``, weights
by ``grid.tile_weight``.  A row square is a tile at y = y1; a diamond is a
tile with pipe x' at y1 = A + x, the rightward diamond a W tile and the
upward diamond an E tile, so ``verify ybe`` checks the one table every
sweep uses.  At y1 = A + x a W tile's A + x' - y is x' - x and its
B - x' + y is A + B + x - x'; the rightward diamond east of a WW stack with
empty row exits is therefore forced to its blank tile of weight A+B+x-x',
and the upward diamond west of a WE stack fed by one pipe to its vertical
straight, of the same weight.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

from .grid import _TILE_EDGES, ROUTES, SIDE, SOUTH, tile_weight
from .poly import Polynomial, Var, alphabet

_A, _B, _XS, _YS = alphabet(2, 1)
X, XP, Y = _XS[0], _XS[1], _YS[0]

WW_IN_CHANNELS = ("in_west_upper", "in_west_lower", "in_south")
WE_IN_CHANNELS = ("in_west_lower", "in_east_lower", "in_south")


class TableEntry(NamedTuple):
    label: str
    inputs: tuple[bool, bool]
    route: tuple[tuple[int, int], ...]  # (in_slot, out_slot) pairs
    weight: Polynomial


def _table(
    row_type: str, x: Polynomial, north_slot: int, y1: Polynomial
) -> tuple[TableEntry, ...]:
    """One entry per tile, in grid.ROUTES order: in slots (side, South),
    North to out slot ``north_slot`` and the far side to the other; weights
    by grid.tile_weight with pipe variable x (X or XP) and y1 set to ``y1``."""
    pipe = _XS.index(x) + 1
    in_slot = {SIDE: 0, SOUTH: 1}
    out_slots = (north_slot, 1 - north_slot)
    at_y1 = {Var("y", 1): y1}
    return tuple(
        TableEntry(
            t.name.lower(),
            (SIDE in route, SOUTH in route),
            tuple((in_slot[src], out) for out, src in zip(out_slots, route) if src),
            tile_weight(row_type, t, pipe, 1, 2, 1).substitute(at_y1),
        )
        for t, route in ROUTES.items()
    )


def w_square(x: Polynomial) -> tuple[TableEntry, ...]:
    """Row square of a W row; in slots (side, South), out slots (side, North)."""
    return _table("W", x, 1, Y)


def e_square(x: Polynomial) -> tuple[TableEntry, ...]:
    """Row square of an E row; same routing shape, blank and straight swapped."""
    return _table("E", x, 1, Y)


def right_diamond() -> tuple[TableEntry, ...]:
    """Rightward diamond, a W tile at y1 = A + x; in slots (tl, bl) = (side,
    South), out slots (tr, br) = (North, far side)."""
    return _table("W", XP, 0, _A + X)


def up_diamond() -> tuple[TableEntry, ...]:
    """Upward diamond, an E tile at y1 = A + x; in slots (br, bl) = (side,
    South), out slots (tl, tr) = (far side, North)."""
    return _table("E", XP, 1, _A + X)


# (name, table, wires into in slots 0 and 1, wires out of out slots 0 and 1)
# per tile, in evaluation order
Wiring = tuple[tuple[str, tuple[TableEntry, ...], tuple[str, str], tuple[str, str]], ...]


@functools.cache
def _layouts() -> dict[str, Wiring]:
    """The four cluster layouts by name, built on first use."""
    return {
        "ww-left": (
            ("D", right_diamond(), ("in_west_upper", "in_west_lower"), ("d0", "d1")),
            ("B", w_square(XP), ("d1", "in_south"), ("out_east_lower", "b1")),
            ("T", w_square(X), ("d0", "b1"), ("out_east_upper", "out_north")),
        ),
        "ww-right": (
            ("B", w_square(X), ("in_west_lower", "in_south"), ("b0", "b1")),
            ("T", w_square(XP), ("in_west_upper", "b1"), ("t0", "out_north")),
            ("D", right_diamond(), ("t0", "b0"), ("out_east_upper", "out_east_lower")),
        ),
        "we-left": (
            ("B", e_square(XP), ("in_east_lower", "in_south"), ("b0", "b1")),
            ("D", up_diamond(), ("b0", "in_west_lower"), ("out_west_upper", "d1")),
            ("T", w_square(X), ("d1", "b1"), ("out_east_upper", "out_north")),
        ),
        "we-right": (
            ("B", w_square(X), ("in_west_lower", "in_south"), ("b0", "b1")),
            ("D", up_diamond(), ("in_east_lower", "b0"), ("d0", "out_east_upper")),
            ("T", e_square(XP), ("d0", "b1"), ("out_west_upper", "out_north")),
        ),
    }


ConnectivityClass = tuple[tuple[str, str], ...]


def cluster_sum(
    name: str, boundary: Mapping[str, int]
) -> dict[ConnectivityClass, Polynomial]:
    """Sum the weights of all internal tilings, grouped by connectivity class.

    ``boundary`` assigns a nonzero pipe id to each occupied external
    in-channel (missing or 0 means empty).  A class is the sorted tuple of
    (in_channel, out_channel) pairs the pipes realize; pipe counts are
    conserved, so the out side always matches the in side in size.
    """
    try:
        layout = _layouts()[name]
    except KeyError:
        raise ValueError(f"unknown layout {name!r}") from None
    channels = [w for _, _, ins, _ in layout for w in ins if w.startswith("in_")]
    ids = {ch: boundary.get(ch, 0) for ch in channels}
    unknown = set(boundary) - set(ids)
    if unknown:
        raise ValueError(f"boundary names unknown channels {sorted(unknown)}")
    occupied = [p for p in ids.values() if p]
    if len(set(occupied)) != len(occupied):
        raise ValueError("occupied in-channels must carry distinct pipe ids")
    # every tiling so far: the pipe id on each wire written, and its weight
    walks = [(ids, Polynomial.const(1, 2, 1))]
    for _, table, ins, outs in layout:
        grown = []
        for wires, weight in walks:
            pipes = (wires[ins[0]], wires[ins[1]])
            for entry in table:
                if entry.inputs == (pipes[0] != 0, pipes[1] != 0):
                    wired = {**wires, outs[0]: 0, outs[1]: 0}
                    for in_slot, out_slot in entry.route:
                        wired[outs[out_slot]] = pipes[in_slot]
                    grown.append((wired, weight * entry.weight))
        walks = grown
    origin = {p: ch for ch, p in ids.items() if p}
    sums: dict[ConnectivityClass, Polynomial] = {}
    for wires, weight in walks:
        cls = tuple(
            sorted((origin[p], w) for w, p in wires.items() if p and w.startswith("out_"))
        )
        sums[cls] = sums[cls] + weight if cls in sums else weight
    return sums


def boundary_patterns(mode: str) -> list[dict[str, int]]:
    """The eight in-channel occupancy patterns, pipes labeled by channel rank."""
    channels = WW_IN_CHANNELS if mode == "ww" else WE_IN_CHANNELS
    patterns = []
    for mask in range(8):
        boundary = {}
        for k, ch in enumerate(channels):
            if (mask >> k) & 1:
                boundary[ch] = k + 1
        patterns.append(boundary)
    return patterns


def class_identities(
    mode: str,
) -> list[tuple[tuple[str, ...], ConnectivityClass, Polynomial, Polynomial]]:
    """All (boundary, class, west sum, east sum) tuples, for inspection."""
    out = []
    for boundary in boundary_patterns(mode):
        left = cluster_sum(f"{mode}-left", boundary)
        right = cluster_sum(f"{mode}-right", boundary)
        key = tuple(sorted(boundary))
        for cls in sorted(set(left) | set(right)):
            out.append(
                (
                    key,
                    cls,
                    left.get(cls, Polynomial.zero(2, 1)),
                    right.get(cls, Polynomial.zero(2, 1)),
                )
            )
    return out


# Per (mode, end), each external diamond channel's index into a tile's
# (side in, South in, far out, North out) occupancies, grid._TILE_EDGES; the
# remaining two channels face the row stack and are constrained only through
# occupancy conservation
_EXTERNAL_DIAMOND_CHANNELS = {
    ("ww", "west"): {"tl": 0, "bl": 1},
    ("ww", "east"): {"tr": 3, "br": 2},
    ("we", "west"): {"tl": 2, "bl": 1},
    ("we", "east"): {"tr": 3, "br": 0},
}


def forced_tile_options(
    mode: str, end: str, boundary: Mapping[str, int]
) -> list[TableEntry]:
    """Diamond entries admissible for the given external edge occupancies.

    ``boundary`` assigns ids (0 = empty) to the diamond channels that are
    external for this insertion end: (tl, bl) for a west rightward diamond,
    (tr, br) for an east one, (tl, bl) for a west upward diamond and
    (tr, br) for an east one.
    """
    try:
        externals = _EXTERNAL_DIAMOND_CHANNELS[(mode, end)]
    except KeyError:
        raise ValueError(f"unknown scenario ({mode!r}, {end!r})") from None
    unknown = set(boundary) - set(externals)
    if unknown:
        raise ValueError(f"boundary names unknown channels {sorted(unknown)}")
    table = right_diamond() if mode == "ww" else up_diamond()
    return [
        entry
        for t, entry in zip(ROUTES, table)
        if all(_TILE_EDGES[t][k] == (boundary.get(ch, 0) != 0) for ch, k in externals.items())
    ]


def forced_tile(mode: str, end: str, boundary: Mapping[str, int]) -> TableEntry:
    """The unique admissible diamond entry; errors when 0 or several fit."""
    options = forced_tile_options(mode, end, boundary)
    if len(options) != 1:
        labels = [e.label for e in options]
        raise ValueError(
            f"expected a single admissible entry for ({mode}, {end}), got {labels}"
        )
    return options[0]
