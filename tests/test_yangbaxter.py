import hashlib
import random

import pytest

from gpd import grid, yangbaxter
from gpd.grid import Tile
from gpd.poly import Polynomial, parse
from gpd.verify import verify_ybe
from gpd.yangbaxter import (
    boundary_patterns,
    class_identities,
    cluster_sum,
    e_square,
    forced_tile,
    forced_tile_options,
    right_diamond,
    up_diamond,
    w_square,
    X,
    XP,
    Y,
)


def P(text: str) -> Polynomial:
    return parse(text, 2, 1)


def test_tables_have_seven_bijective_entries():
    for table in (w_square(X), e_square(XP), right_diamond(), up_diamond()):
        assert len(table) == 7
        for entry in table:
            ins = [s for s, _ in entry.route]
            outs = [t for _, t in entry.route]
            assert len(set(ins)) == len(ins)
            assert len(set(outs)) == len(outs)
            assert entry.inputs == (0 in ins, 1 in ins)


def test_occupancy_is_conserved_in_every_layout():
    for name in yangbaxter._layouts():
        for boundary in boundary_patterns(name[:2]):
            for cls, poly in cluster_sum(name, boundary).items():
                assert len(cls) == len(boundary)
                assert not poly.is_zero()


@pytest.mark.parametrize("name", ["ww-left", "ww-right", "we-left", "we-right"])
def test_layout_wires_each_internal_wire_once(name):
    # each tile reads two wires and writes two; an internal wire is written
    # by one tile and read by exactly one later tile
    inputs, outputs, written, read = [], [], [], []
    for _, table, ins, outs in yangbaxter._layouts()[name]:
        assert len(table) == 7 and len(ins) == len(outs) == 2
        for wire in ins:
            if wire.startswith("in_"):
                inputs.append(wire)
            else:
                assert wire in written and wire not in read, wire
                read.append(wire)
        for wire in outs:
            assert not wire.startswith("in_") and wire not in written, wire
            (outputs if wire.startswith("out_") else written).append(wire)
    if name.startswith("ww"):
        in_channels = yangbaxter.WW_IN_CHANNELS
        out_channels = ("out_north", "out_east_upper", "out_east_lower")
    else:
        in_channels = yangbaxter.WE_IN_CHANNELS
        out_channels = ("out_west_upper", "out_east_upper", "out_north")
    assert sorted(inputs) == sorted(in_channels)
    assert sorted(outputs) == sorted(out_channels)
    assert sorted(read) == sorted(written)


def test_verify_ybe_both_modes():
    for mode in ("ww", "we"):
        report = verify_ybe(mode)
        assert report.ok, report.failures[:3]


@pytest.mark.parametrize(
    "row_type,x_tiles,failing",
    [
        ("E", grid.X_TILES["E"] | {Tile.STRAIGHT_H}, {"we"}),
        ("W", grid.X_TILES["W"] - {Tile.STRAIGHT_V}, {"ww", "we"}),
    ],
)
def test_verify_ybe_fails_on_a_mutated_x_tile_set(row_type, x_tiles, failing):
    # squares and diamonds both read grid.X_TILES, so one wrong tile breaks
    # the identities in every mode with a row of that type
    caches = (grid.tile_weight.cache_clear, grid._linear_weight.cache_clear,
              yangbaxter._layouts.cache_clear)
    original = grid.X_TILES[row_type]
    grid.X_TILES[row_type] = x_tiles
    try:
        for clear in caches:
            clear()
        assert {mode for mode in ("ww", "we") if not verify_ybe(mode).ok} == failing
    finally:
        grid.X_TILES[row_type] = original
        for clear in caches:
            clear()
    assert verify_ybe().ok


def test_class_identities_are_pinned():
    # equal sides alone would pass a wiring slip that moves both alike; the
    # hash pins every boundary, class and both sums as printed
    lines = [
        repr((mode, boundary, cls, west.format(), east.format()))
        for mode in ("ww", "we")
        for boundary, cls, west, east in class_identities(mode)
    ]
    assert len(lines) == 68
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1906af10e72deafd2ff19cf2e673377886badff4fd8a8364941718153a22c8b8"


def test_ybe_specializes_at_random_integer_points():
    rng = random.Random(331)
    identities = class_identities("ww") + class_identities("we")
    for _ in range(20):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        x, xp, y = (rng.randint(-9, 9) for _ in range(3))
        for _, _, lhs, rhs in identities:
            assert lhs.evaluate(a, b, [x, xp], [y]) == rhs.evaluate(a, b, [x, xp], [y])


def _sub_xp(f: Polynomial) -> Polynomial:
    from gpd.poly import Var

    return f.substitute({Var("x", 2): X})


def test_degenerate_parameters_still_agree():
    # setting x' = x collapses the diamond weights; the class sums must
    # remain equal under the substitution
    for mode in ("ww", "we"):
        for boundary in boundary_patterns(mode):
            left = cluster_sum(f"{mode}-left", boundary)
            right = cluster_sum(f"{mode}-right", boundary)
            for cls in set(left) | set(right):
                lhs = _sub_xp(left.get(cls, Polynomial.zero(2, 1)))
                rhs = _sub_xp(right.get(cls, Polynomial.zero(2, 1)))
                assert lhs == rhs


def test_displayed_identity_one():
    # (A+B)^2 (A+x'-y) = (A+B)^2 (x'-x) + (A+B)^2 (A+x-y)
    lhs = P("A+B") ** 2 * P("A+x2-y1")
    rhs = P("A+B") ** 2 * P("x2-x1") + P("A+B") ** 2 * P("A+x1-y1")
    assert lhs == rhs
    hits = [
        (bdy, cls)
        for bdy, cls, west, east in class_identities("ww")
        if west == lhs and east == rhs
    ]
    assert hits, "identity not realized by any class"


def test_displayed_identity_two():
    # (A+B)^2 (B-x'+y) + (A+B)(x'-x)(A+x-y) = (A+B)(A+B+x-x')(B-x+y)
    lhs = P("A+B") ** 2 * P("B-x2+y1") + P("A+B") * P("x2-x1") * P("A+x1-y1")
    rhs = P("A+B") * P("A+B+x1-x2") * P("B-x1+y1")
    assert lhs == rhs
    hits = [
        (bdy, cls)
        for bdy, cls, west, east in class_identities("ww")
        if west == lhs and east == rhs
    ]
    assert hits, "identity not realized by any class"


def test_cluster_sum_spec_example_two_pipe_class():
    boundary = {"in_west_upper": 1, "in_south": 2}
    cls = (("in_south", "out_north"), ("in_west_upper", "out_east_lower"))
    expected = P("x2-x1") * P("A+x1-y1") * P("A+x2-y1")
    for layout in ("ww-left", "ww-right"):
        assert cluster_sum(layout, boundary)[cls] == expected


def test_cluster_sum_empty_boundary():
    sums = cluster_sum("ww-left", {})
    assert list(sums) == [()]
    assert sums[()] == P("A+B+x1-x2") * P("B-x2+y1") * P("B-x1+y1")
    assert cluster_sum("ww-right", {})[()] == sums[()]


def test_cluster_sum_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        cluster_sum("ww-left", {"nonsense": 1})
    with pytest.raises(ValueError):
        cluster_sum("ww-left", {"in_west_upper": 1, "in_west_lower": 1})
    with pytest.raises(ValueError):
        cluster_sum("sideways", {})


def test_forced_tiles_match_insertion_arguments():
    entry = forced_tile("we", "west", {"tl": 0, "bl": 1})
    assert entry.label == "straight_v"
    assert entry.weight == P("A+B+x1-x2")

    entry = forced_tile("ww", "east", {"tr": 0, "br": 0})
    assert entry.label == "blank"
    assert entry.weight == P("A+B+x1-x2")

    entry = forced_tile("we", "east", {"tr": 0, "br": 1})
    assert entry.label == "straight_h"
    assert entry.weight == P("A+B+x1-x2")

    options = forced_tile_options("ww", "west", {"tl": 1, "bl": 2})
    assert sorted(o.label for o in options) == ["cross", "double_elbow"]
    weights = {o.label: o.weight for o in options}
    assert weights["cross"] == P("x2-x1")
    assert weights["double_elbow"] == P("A+B")
    with pytest.raises(ValueError):
        forced_tile("ww", "west", {"tl": 1, "bl": 2})
    with pytest.raises(ValueError):
        forced_tile("ww", "sideways", {})
