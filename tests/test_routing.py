"""The routing table and the dream walk against an independent reference.

The reference enumerates row by row over hand-written transition tables
and reads connectivity, flux labels and exit elbows off ``trace_pipes``,
which routes pipes by its own rules.  The literal flux pair tables and
Yang-Baxter row squares and diamonds below are the hand-written ones the
table-derived versions replace.
"""

import itertools
import math

import pytest

from gpd import flux, grid, schubert
from gpd.grid import PipeDream, Tile, connectivity, count_dreams, enumerate_dreams
from gpd.poly import parse
from gpd.schubert import all_hybridizations, all_partial_perms
from gpd.yangbaxter import XP, X, e_square, right_diamond, up_diamond, w_square

from conftest import SMALL_SHAPES
from refpipes import exit_elbow_columns, trace_pipes

# (side_in, south_in) -> admissible tiles, in Tile order
REF_CHOICES = {
    (False, False): (Tile.BLANK,),
    (True, False): (Tile.STRAIGHT_H, Tile.ELBOW_IN),
    (False, True): (Tile.STRAIGHT_V, Tile.ELBOW_OUT),
    (True, True): (Tile.CROSS, Tile.DOUBLE_ELBOW),
}
# Tile -> (side_in, south_in, side_out, north_out)
REF_EDGES = {
    Tile.BLANK: (False, False, False, False),
    Tile.STRAIGHT_H: (True, False, True, False),
    Tile.STRAIGHT_V: (False, True, False, True),
    Tile.CROSS: (True, True, True, True),
    Tile.ELBOW_IN: (True, False, False, True),
    Tile.ELBOW_OUT: (False, True, True, False),
    Tile.DOUBLE_ELBOW: (True, True, True, True),
}


def ref_row_fillings(row_type, south, mode):
    """(tiles, north) of one row over the given South edges, in stream order."""
    n = len(south)
    west_going = row_type == "W"
    banned = None
    if mode == "nongeneric":
        banned = Tile.STRAIGHT_V if west_going else Tile.DOUBLE_ELBOW
    cols = list(range(n) if west_going else range(n - 1, -1, -1))
    tiles, north = [Tile.BLANK] * n, [False] * n

    def rec(k, side):
        if k == n:
            if not side:
                yield tuple(tiles), tuple(north)
            return
        j = cols[k]
        for t in REF_CHOICES[(side, south[j])]:
            if t == banned:
                continue
            tiles[j], north[j] = t, REF_EDGES[t][3]
            yield from rec(k + 1, REF_EDGES[t][2])
        tiles[j], north[j] = Tile.BLANK, False

    yield from rec(0, True)


def ref_connectivity(d):
    """(pi, crossings) from the traced paths."""
    paths = trace_pipes(d)
    pi = [0] * d.m
    for pipe, path in paths.items():
        pi[pipe - 1] = path[-1][2]
    horizontal, vertical = {}, {}
    for pipe, path in paths.items():
        for (k1, i1, j1), (k2, i2, j2) in zip(path, path[1:]):
            if k1 == "V" and k2 == "V":
                horizontal[(i1, max(j1, j2))] = pipe
            elif k1 == "H" and k2 == "H":
                vertical[(i1, j1)] = pipe
    crossings = []
    for i in range(1, d.m + 1):
        for j in range(1, d.n + 1):
            if d.tile(i, j) == Tile.CROSS:
                a, b = horizontal[(i, j)], vertical[(i, j)]
                crossings.append((min(a, b), max(a, b)))
    return tuple(pi), tuple(sorted(crossings))


def ref_stream(m, n, beta, mode):
    """[(dream, pi, crossings)] in stream order, double crossings dropped
    in nongeneric mode."""
    out = []
    rows = [()] * m

    def build(i, south):
        if i == 0:
            d = PipeDream(m, n, beta, tuple(rows))
            pi, crossings = ref_connectivity(d)
            if mode == "generic" or len(set(crossings)) == len(crossings):
                out.append((d, pi, crossings))
            return
        for tiles, north in ref_row_fillings(beta[i - 1], south, mode):
            rows[i - 1] = tiles
            build(i - 1, north)

    build(m, (False,) * n)
    return out


def test_derived_transition_tables_match_literals():
    assert grid._TILE_CHOICES == REF_CHOICES
    assert grid._TILE_EDGES == REF_EDGES
    assert grid.NONGENERIC_BAN == {"W": Tile.STRAIGHT_V, "E": Tile.DOUBLE_ELBOW}


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
@pytest.mark.parametrize("mode", ["generic", "nongeneric"])
def test_walk_stream_matches_reference(m, n, mode):
    words = all_partial_perms(m, n)
    assert words == sorted(words)
    assert len(words) == math.factorial(n) // math.factorial(n - m)
    for beta in all_hybridizations(m):
        ref = ref_stream(m, n, beta, mode)
        assert list(enumerate_dreams(m, n, beta, mode=mode)) == [d for d, _, _ in ref]
        assert count_dreams(m, n, beta, mode=mode) == len(ref)
        assert [w for w, _ in grid.walk(m, n, beta, mode=mode)] == [p for _, p, _ in ref]
        for pi in words:
            want = [d for d, p, _ in ref if p == pi]
            assert list(enumerate_dreams(m, n, beta, pi, mode)) == want, (beta, pi)
            assert count_dreams(m, n, beta, pi, mode) == len(want)
        # several targets: exits pruned against all of them, leaves filtered
        targets = set(words[::3])
        got = [w for w, _ in grid.walk(m, n, beta, mode=mode, targets=targets)]
        assert got == [p for _, p, _ in ref if p in targets]


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_label_routing_matches_traced_paths(m, n):
    for beta in all_hybridizations(m):
        for d, pi, crossings in ref_stream(m, n, beta, "generic"):
            assert connectivity(d) == (pi, crossings)
            paths = trace_pipes(d)
            labels = {e: 0 for e in flux.flux_grid(m, n, beta)}
            for pipe, path in paths.items():
                for edge in path:
                    labels[edge] = pipe
            assert grid.edge_labels(d) == labels
            elbows = {}
            for path in paths.values():
                first_h = next(e for e in path if e[0] == "H")
                elbows[first_h[1] + 1] = first_h[2]
            assert exit_elbow_columns(d) == elbows


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_one_own_turn_per_row(m, n):
    # the class sweep weighs 1 at the one tile per row whose side label is
    # the row's own pipe and whose North source is SIDE: an ELBOW_IN or
    # DOUBLE_ELBOW in the exit elbow's column, and schubert._own_turn is
    # true there and nowhere else
    for beta in all_hybridizations(m):
        phi = grid.pipe_numbering(beta)
        for d in enumerate_dreams(m, n, beta):
            labels = grid.edge_labels(d)
            turns = {}
            for i in range(1, m + 1):
                west_going = beta[i - 1] == "W"
                for j in range(1, n + 1):
                    t = d.tile(i, j)
                    side = labels["V", i, j - 1 if west_going else j]
                    own = side == phi[i - 1] and grid.ROUTES[t][0] == grid.SIDE
                    assert schubert._own_turn(t, side, phi[i - 1]) == own
                    if own:
                        assert t in (Tile.ELBOW_IN, Tile.DOUBLE_ELBOW)
                        turns.setdefault(i, []).append(j)
            assert turns == {i: [j] for i, j in exit_elbow_columns(d).items()}


def test_flux_pair_tables_match_literals():
    def pairs(*texts):
        return frozenset(frozenset(t) for t in texts)

    w_pairs = {
        Tile.BLANK: pairs(),
        Tile.STRAIGHT_H: pairs("WE"),
        Tile.STRAIGHT_V: pairs("SN"),
        Tile.CROSS: pairs("WE", "SN"),
        Tile.ELBOW_IN: pairs("WN"),
        Tile.ELBOW_OUT: pairs("SE"),
        Tile.DOUBLE_ELBOW: pairs("WN", "SE"),
    }
    e_pairs = {
        Tile.BLANK: pairs(),
        Tile.STRAIGHT_H: pairs("WE"),
        Tile.STRAIGHT_V: pairs("SN"),
        Tile.CROSS: pairs("WE", "SN"),
        Tile.ELBOW_IN: pairs("EN"),
        Tile.ELBOW_OUT: pairs("SW"),
        Tile.DOUBLE_ELBOW: pairs("EN", "SW"),
    }
    # a square admits the tiles whose pairs join exactly its occupied edges,
    # each pair carrying one label; the inverse router must admit the same
    two_fit = set()
    for row_type, literal in (("W", w_pairs), ("E", e_pairs)):
        side, far = ("W", "E") if row_type == "W" else ("E", "W")
        for values in itertools.product((0, 1, 2), repeat=4):
            at = dict(zip("WESN", values))
            occupied = frozenset(e for e, v in at.items() if v)
            want = tuple(
                t
                for t, ps in literal.items()
                if frozenset().union(*ps) == occupied
                and all(len({at[e] for e in p}) == 1 for p in ps)
            )
            got = grid.routing_tiles(at[side], at["S"], at["N"], at[far])
            assert got == want, (row_type, at)
            if len(want) == 2:
                two_fit.add((row_type, values))
    # equal side and South labels: the cross and the double elbow both fit
    assert two_fit == {
        (r, v)
        for r in "WE"
        for v in itertools.product((1, 2), repeat=4)
        if len(set(v)) == 1
    }


@pytest.mark.parametrize("square,row_type", [(w_square, "W"), (e_square, "E")])
@pytest.mark.parametrize("x,xname", [(X, "x1"), (XP, "x2")])
def test_row_squares_match_literals(square, row_type, x, xname):
    routes = {
        "blank": (),
        "straight_h": ((0, 0),),
        "elbow_in": ((0, 1),),
        "straight_v": ((1, 1),),
        "elbow_out": ((1, 0),),
        "cross": ((0, 0), (1, 1)),
        "double_elbow": ((0, 1), (1, 0)),
    }
    w_straight, w_blank = f"A + {xname} - y1", f"B - {xname} + y1"
    straight, blank = (w_straight, w_blank) if row_type == "W" else (w_blank, w_straight)
    weights = {
        "blank": blank,
        "straight_h": straight,
        "elbow_in": "A + B",
        "straight_v": straight,
        "elbow_out": "A + B",
        "cross": straight,
        "double_elbow": "A + B",
    }
    literal = {
        label: (frozenset(route), parse(weights[label], 2, 1)) for label, route in routes.items()
    }
    entries = square(x)
    assert len(entries) == len(literal)
    assert {e.label: (frozenset(e.route), e.weight) for e in entries} == literal


def test_diamonds_match_literals():
    # the hand-written diamonds, elbows named as the tiles they are
    right = {
        "blank": ((), "A + B + x1 - x2"),
        "straight_h": (((0, 1),), "x2 - x1"),  # tl -> br
        "elbow_in": (((0, 0),), "A + B"),  # tl -> tr
        "straight_v": (((1, 0),), "x2 - x1"),  # bl -> tr
        "elbow_out": (((1, 1),), "A + B"),  # bl -> br
        "cross": (((0, 1), (1, 0)), "x2 - x1"),
        "double_elbow": (((0, 0), (1, 1)), "A + B"),
    }
    up = {
        "blank": ((), "x2 - x1"),
        "straight_h": (((0, 0),), "A + B + x1 - x2"),  # br -> tl
        "elbow_in": (((0, 1),), "A + B"),  # br -> tr
        "straight_v": (((1, 1),), "A + B + x1 - x2"),  # bl -> tr
        "elbow_out": (((1, 0),), "A + B"),  # bl -> tl
        "cross": (((0, 0), (1, 1)), "A + B + x1 - x2"),
        "double_elbow": (((0, 1), (1, 0)), "A + B"),
    }
    for table, literal in ((right_diamond(), right), (up_diamond(), up)):
        assert [e.label for e in table] == [t.name.lower() for t in grid.ROUTES]
        want = {
            label: (
                frozenset(route),
                (any(s == 0 for s, _ in route), any(s == 1 for s, _ in route)),
                parse(w, 2, 1),
            )
            for label, (route, w) in literal.items()
        }
        assert {e.label: (frozenset(e.route), e.inputs, e.weight) for e in table} == want
