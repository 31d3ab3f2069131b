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
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .grid import _TILE_EDGES, ROUTES, SIDE, SOUTH, tile_weight
from .poly import Polynomial, Var, alphabet

_A, _B, _XS, _YS = alphabet(2, 1)
X, XP, Y = _XS[0], _XS[1], _YS[0]

WW_IN_CHANNELS = ("in_west_upper", "in_west_lower", "in_south")
WW_OUT_CHANNELS = ("out_north", "out_east_upper", "out_east_lower")
WE_IN_CHANNELS = ("in_west_lower", "in_east_lower", "in_south")
WE_OUT_CHANNELS = ("out_west_upper", "out_east_upper", "out_north")


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


@dataclass(frozen=True)
class Layout:
    """One diamond plus a two-square stack, wired and topologically ordered.

    ``feeds`` maps (component, in_slot) to an external in-channel name or to
    (component, out_slot); ``outs`` maps external out-channel names to
    (component, out_slot).
    """

    name: str
    tables: dict[str, tuple[TableEntry, ...]]
    order: tuple[str, ...]
    feeds: dict[tuple[str, int], object]
    outs: dict[str, tuple[str, int]]
    in_channels: tuple[str, ...]
    out_channels: tuple[str, ...]


@functools.cache
def _layouts() -> dict[str, Layout]:
    """The four cluster layouts by name, built on first use."""
    ww_left = Layout(
        name="ww-left",
        tables={"D": right_diamond(), "T": w_square(X), "B": w_square(XP)},
        order=("D", "B", "T"),
        feeds={
            ("D", 0): "in_west_upper",
            ("D", 1): "in_west_lower",
            ("B", 0): ("D", 1),  # br feeds the lower row's entering side
            ("B", 1): "in_south",
            ("T", 0): ("D", 0),  # tr feeds the upper row's entering side
            ("T", 1): ("B", 1),
        },
        outs={
            "out_north": ("T", 1),
            "out_east_upper": ("T", 0),
            "out_east_lower": ("B", 0),
        },
        in_channels=WW_IN_CHANNELS,
        out_channels=WW_OUT_CHANNELS,
    )
    ww_right = Layout(
        name="ww-right",
        tables={"T": w_square(XP), "B": w_square(X), "D": right_diamond()},
        order=("B", "T", "D"),
        feeds={
            ("T", 0): "in_west_upper",
            ("B", 0): "in_west_lower",
            ("B", 1): "in_south",
            ("T", 1): ("B", 1),
            ("D", 0): ("T", 0),  # the rows' exits feed the diamond
            ("D", 1): ("B", 0),
        },
        outs={
            "out_north": ("T", 1),
            "out_east_upper": ("D", 0),
            "out_east_lower": ("D", 1),
        },
        in_channels=WW_IN_CHANNELS,
        out_channels=WW_OUT_CHANNELS,
    )
    we_left = Layout(
        name="we-left",
        tables={"D": up_diamond(), "T": w_square(X), "B": e_square(XP)},
        order=("B", "D", "T"),
        feeds={
            ("B", 0): "in_east_lower",
            ("B", 1): "in_south",
            ("D", 0): ("B", 0),  # the E row's west exit feeds the lower input
            ("D", 1): "in_west_lower",
            ("T", 0): ("D", 1),  # tr feeds the W row's entering side
            ("T", 1): ("B", 1),
        },
        outs={
            "out_west_upper": ("D", 0),
            "out_east_upper": ("T", 0),
            "out_north": ("T", 1),
        },
        in_channels=WE_IN_CHANNELS,
        out_channels=WE_OUT_CHANNELS,
    )
    we_right = Layout(
        name="we-right",
        tables={"T": e_square(XP), "B": w_square(X), "D": up_diamond()},
        order=("B", "D", "T"),
        feeds={
            ("B", 0): "in_west_lower",
            ("B", 1): "in_south",
            ("D", 0): "in_east_lower",
            ("D", 1): ("B", 0),  # the W row's east exit feeds the lower input
            ("T", 0): ("D", 0),  # tl feeds the E row's entering side
            ("T", 1): ("B", 1),
        },
        outs={
            "out_west_upper": ("T", 0),
            "out_east_upper": ("D", 1),
            "out_north": ("T", 1),
        },
        in_channels=WE_IN_CHANNELS,
        out_channels=WE_OUT_CHANNELS,
    )
    return {layout.name: layout for layout in (ww_left, ww_right, we_left, we_right)}


def __getattr__(name: str):
    """``LAYOUTS`` is the cached ``_layouts()``: importing the module builds no table."""
    if name == "LAYOUTS":
        return _layouts()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

ConnectivityClass = tuple[tuple[str, str], ...]


def cluster_sum(
    layout: str | Layout, boundary: Mapping[str, int]
) -> dict[ConnectivityClass, Polynomial]:
    """Sum the weights of all internal tilings, grouped by connectivity class.

    ``boundary`` assigns a nonzero pipe id to each occupied external
    in-channel (missing or 0 means empty).  A class is the sorted tuple of
    (in_channel, out_channel) pairs the pipes realize; pipe counts are
    conserved, so the out side always matches the in side in size.
    """
    if isinstance(layout, str):
        try:
            layout = _layouts()[layout]
        except KeyError:
            raise ValueError(f"unknown layout {layout!r}") from None
    unknown = set(boundary) - set(layout.in_channels)
    if unknown:
        raise ValueError(f"boundary names unknown channels {sorted(unknown)}")
    ids = {ch: boundary.get(ch, 0) for ch in layout.in_channels}
    occupied = [p for p in ids.values() if p]
    if len(set(occupied)) != len(occupied):
        raise ValueError("occupied in-channels must carry distinct pipe ids")
    sums: dict[ConnectivityClass, Polynomial] = {}

    def source_value(state, comp, slot):
        feed = layout.feeds[(comp, slot)]
        if isinstance(feed, str):
            return ids[feed]
        upstream, out_slot = feed
        return state[upstream][out_slot]

    def rec(idx: int, state: dict, weight_so_far: Polynomial):
        if idx == len(layout.order):
            pairs = []
            for ch, (comp, out_slot) in layout.outs.items():
                pid = state[comp][out_slot]
                if pid:
                    origin = next(c for c, p in ids.items() if p == pid)
                    pairs.append((origin, ch))
            cls = tuple(sorted(pairs))
            if cls in sums:
                sums[cls] = sums[cls] + weight_so_far
            else:
                sums[cls] = weight_so_far
            return
        comp = layout.order[idx]
        in_vals = (source_value(state, comp, 0), source_value(state, comp, 1))
        occupancy = (in_vals[0] != 0, in_vals[1] != 0)
        for entry in layout.tables[comp]:
            if entry.inputs != occupancy:
                continue
            outs = [0, 0]
            for in_slot, out_slot in entry.route:
                outs[out_slot] = in_vals[in_slot]
            state[comp] = tuple(outs)
            rec(idx + 1, state, weight_so_far * entry.weight)
        state.pop(comp, None)

    rec(0, {}, Polynomial.const(1, 2, 1))
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
