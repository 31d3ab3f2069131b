import dataclasses

import pytest

from gpd import grid, schubert
from gpd.flux import (
    EdgeId,
    EquationSet,
    component_class,
    flux_grid,
    flux_system_rank,
    format_flux,
    reconstruct_dream,
    reduced_flux_table,
    variety_equations,
)
from gpd.grid import Tile, enumerate_dreams, parse_dream, pipe_numbering, tile_weight
from gpd.poly import parse, product
from gpd.schubert import all_hybridizations, recurrence_table
from gpd.verify import conservation_check

from conftest import SMALL_SHAPES
from refpipes import exit_elbow_columns, trace_pipes

DREAM1 = "2 2\nWE\nn|\n.n\n"  # components <x21, x12>
DREAM2 = "2 2\nWE\nbn\nn-\n"  # component <y22, x21 y12 - x12 y21>


def test_flux_grid_worked_example():
    fg = flux_grid(2, 2, "WE")
    assert format_flux(fg[EdgeId("V", 1, 0)]) == "x11y11+x12y21"
    assert format_flux(fg[EdgeId("V", 1, 1)]) == "x12y21"
    assert format_flux(fg[EdgeId("V", 1, 2)]) == "0"
    assert format_flux(fg[EdgeId("V", 2, 0)]) == "0"
    assert format_flux(fg[EdgeId("V", 2, 1)]) == "x21y12"
    assert format_flux(fg[EdgeId("V", 2, 2)]) == "x21y12+x22y22"
    assert format_flux(fg[EdgeId("H", 1, 1)]) == "x21y12"
    assert format_flux(fg[EdgeId("H", 1, 2)]) == "x22y22"
    assert format_flux(fg[EdgeId("H", 2, 1)]) == "0"
    assert format_flux(fg[EdgeId("H", 2, 2)]) == "0"
    # the two top entries where the printed table carries suspected typos:
    # the flux formulas force these values
    assert format_flux(fg[EdgeId("H", 0, 1)]) == "x11y11+x21y12"
    assert format_flux(fg[EdgeId("H", 0, 2)]) == "x12y21+x22y22"


def test_entering_edge_carries_full_pipe_flux():
    for m, n in [(1, 3), (2, 3), (3, 4)]:
        for beta in all_hybridizations(m):
            fg = flux_grid(m, n, beta)
            phi = grid.pipe_numbering(beta)
            for i in range(1, m + 1):
                p = phi[i - 1]
                enter = EdgeId("V", i, 0 if beta[i - 1] == "W" else n)
                other = EdgeId("V", i, n if beta[i - 1] == "W" else 0)
                assert fg[enter] == frozenset((p, j) for j in range(1, n + 1))
                assert fg[other] == frozenset()
            for j in range(1, n + 1):
                assert fg[EdgeId("H", 0, j)] == frozenset(
                    (p, j) for p in range(1, m + 1)
                )
                assert fg[EdgeId("H", m, j)] == frozenset()


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_conservation_all_betas(m, n):
    for beta in all_hybridizations(m):
        report = conservation_check(m, n, beta)
        assert report.ok, (beta, report.failures)


def test_labels_1x1():
    d = parse_dream("1 1\nW\nn\n")
    labels = grid.edge_labels(d)
    assert labels[EdgeId("V", 1, 0)] == 1
    assert labels[EdgeId("H", 0, 1)] == 1
    assert sum(1 for v in labels.values() if v) == 2


def test_labels_worked_example_dream1():
    d = parse_dream(DREAM1)
    labels = grid.edge_labels(d)
    nonzero = {e: v for e, v in labels.items() if v}
    assert nonzero == {
        EdgeId("V", 1, 0): 1,
        EdgeId("H", 0, 1): 1,
        EdgeId("V", 2, 2): 2,
        EdgeId("H", 1, 2): 2,
        EdgeId("H", 0, 2): 2,
    }


def test_labels_path_lengths():
    for beta in all_hybridizations(2):
        for d in enumerate_dreams(2, 3, beta):
            labels = grid.edge_labels(d)
            paths = trace_pipes(d)
            for pipe, path in paths.items():
                assert sum(1 for v in labels.values() if v == pipe) == len(path)


def test_north_labels_realize_connectivity():
    for beta in all_hybridizations(3):
        for d in enumerate_dreams(3, 3, beta):
            labels = grid.edge_labels(d)
            pi, _ = grid.connectivity(d)
            for j in range(1, 4):
                expected = next((p for p in range(1, 4) if pi[p - 1] == j), 0)
                assert labels[EdgeId("H", 0, j)] == expected


def test_variety_equations_worked_example():
    eq1 = variety_equations(parse_dream(DREAM1))
    assert eq1.zero_x == frozenset({(2, 1), (1, 2)})
    assert eq1.zero_y == frozenset()
    assert eq1.pi == (1, 2)
    assert eq1.independent_count() == 2

    eq2 = variety_equations(parse_dream(DREAM2))
    assert eq2.zero_x == frozenset()
    assert eq2.zero_y == frozenset({(2, 2)})
    assert eq2.independent_count() == 2
    # the binomial generator x21 y12 = x12 y21 appears as two edges carrying
    # the same pipe flux with different formal sums
    fg = flux_grid(2, 2, "WE")
    assert eq2.flux[EdgeId("V", 1, 1)] == 2 and fg[EdgeId("V", 1, 1)] == frozenset({(1, 2)})
    assert eq2.flux[EdgeId("H", 1, 1)] == 2 and fg[EdgeId("H", 1, 1)] == frozenset({(2, 1)})


def test_equation_count_m_n_small():
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3)]:
        for beta in all_hybridizations(m):
            for d in enumerate_dreams(m, n, beta):
                eqs = variety_equations(d)
                assert eqs.independent_count() == m * (n - 1)
                assert flux_system_rank(eqs) == m * n


def test_labels_satisfy_conservation_at_every_square():
    # substituting the pipe labels for the fluxes keeps the conservation
    # law: per square, the in-side multiset equals the out-side multiset,
    # and a vanishing X or Y entry forces straight-through labels
    from collections import Counter

    for m, n in [(1, 3), (2, 2), (2, 3)]:
        for beta in all_hybridizations(m):
            for d in enumerate_dreams(m, n, beta):
                eqs = variety_equations(d)
                labels = eqs.flux
                phi = grid.pipe_numbering(d.beta)
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        w = labels[EdgeId("V", i, j - 1)]
                        e = labels[EdgeId("V", i, j)]
                        s = labels[EdgeId("H", i, j)]
                        nn = labels[EdgeId("H", i - 1, j)]
                        if d.row_type(i) == "W":
                            assert Counter([w, s]) == Counter([e, nn])
                        else:
                            assert Counter([e, s]) == Counter([w, nn])
                        killed = (phi[i - 1], j) in eqs.zero_x or (
                            j,
                            phi[i - 1],
                        ) in eqs.zero_y
                        if killed:
                            assert w == e and nn == s


def test_exit_elbow_columns_intro_dream():
    d = parse_dream("3 4\nWEW\nne+n\n.n+-\n--n.\n")
    assert exit_elbow_columns(d) == {1: 1, 2: 2, 3: 3}


def test_component_class_1x1():
    d = parse_dream("1 1\nW\nn\n")
    assert component_class(variety_equations(d)) == parse("1", 1, 1)


def test_component_class_worked_example():
    d = parse_dream(DREAM1)
    cls = component_class(variety_equations(d))
    ab = parse("A+B", 2, 2)
    assert cls * ab**2 == grid.weight(d)
    # row 1 skips its exit elbow at (1,1); row 2 at (2,2)
    assert cls == parse("A+x1-y2", 2, 2) * parse("A+x2-y1", 2, 2)


def test_component_classes_sum_to_g():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        table = recurrence_table(m, n)
        for beta in all_hybridizations(m):
            sums: dict = {}
            for d in enumerate_dreams(m, n, beta):
                pi, _ = grid.connectivity(d)
                ab = grid._ab_power(m, n, m)
                piece = ab * component_class(variety_equations(d))
                sums[pi] = sums[pi] + piece if pi in sums else piece
            assert sums == table, (m, n, beta)


def class_sum_faults(m, n, table):
    """(row type, word) pairs, over every row type, whose swept class sum is
    not the sum of the word's dreams' component classes, or whose (A+B)^m
    times it is not the recurrence's G (``table``)."""
    ab_m = grid._ab_power(m, n, m)
    faults = []
    for beta in all_hybridizations(m):
        swept = schubert._sweep(m, n, beta, None, classes=True)
        classes: dict = {}
        for d in enumerate_dreams(m, n, beta):
            eqs = variety_equations(d)
            cls = component_class(eqs)
            classes[eqs.pi] = classes[eqs.pi] + cls if eqs.pi in classes else cls
        for pi in sorted(set(swept) | set(classes) | set(table)):
            cls = swept.get(pi)
            if cls is None or cls != classes.get(pi) or ab_m * cls != table[pi]:
                faults.append((beta, pi))
    return faults


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_class_sums_are_component_classes(m, n):
    assert class_sum_faults(m, n, recurrence_table(m, n)) == []


@pytest.mark.parametrize("rule", ["counts_elbow_out", "any_side_label"])
def test_class_sums_fail_on_a_mutated_turn_rule(monkeypatch, rule):
    own_turn = schubert._own_turn
    mutated = {
        "counts_elbow_out": lambda t, side, pipe: t is Tile.ELBOW_OUT or own_turn(t, side, pipe),
        "any_side_label": lambda t, side, pipe: t in schubert._TURNS,
    }
    monkeypatch.setattr(schubert, "_own_turn", mutated[rule])
    for m, n in [(2, 3), (3, 3)]:
        assert class_sum_faults(m, n, recurrence_table(m, n)), (m, n)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_component_class_matches_both_weight_routes(m, n):
    """(A+B)^m times the class is the dream weight, and the class is the
    product of tile weights skipping each row's exit elbow."""
    ab_m = grid._ab_power(m, n, m)
    for beta in all_hybridizations(m):
        phi = pipe_numbering(beta)
        for d in enumerate_dreams(m, n, beta):
            cls = component_class(variety_equations(d))
            assert ab_m * cls == grid.weight(d)
            skip = exit_elbow_columns(d)
            factors = [
                tile_weight(beta[i - 1], d.tile(i, j), phi[i - 1], j, m, n)
                for i in range(1, m + 1)
                for j in range(1, n + 1)
                if skip[i] != j
            ]
            assert cls == product(m, n, factors)


def test_reconstruct_roundtrip():
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
        for beta in all_hybridizations(m):
            for d in enumerate_dreams(m, n, beta):
                assert reconstruct_dream(variety_equations(d)) == d


def test_reconstruct_roundtrip_3x3_312():
    for beta in all_hybridizations(3):
        for d in enumerate_dreams(3, 3, beta, (3, 1, 2)):
            assert reconstruct_dream(variety_equations(d)) == d


def test_reconstruct_detects_inconsistent_labels():
    d = parse_dream(DREAM1)
    eqs = variety_equations(d)
    bad = dict(eqs.flux)
    bad[EdgeId("V", 1, 0)] = 0  # erase the entering pipe
    broken = EquationSet(
        m=eqs.m, n=eqs.n, beta=eqs.beta, pi=eqs.pi,
        zero_x=eqs.zero_x, zero_y=eqs.zero_y, flux=bad,
    )
    # DREAM2's pairing of edges in every square, so its tiles, with every
    # edge naming the other pipe; and DREAM2's labels with another pi
    eqs2 = variety_equations(parse_dream(DREAM2))
    swapped = {e: {1: 2, 2: 1}.get(v, v) for e, v in eqs2.flux.items()}
    for wrong in (broken, dataclasses.replace(eqs2, flux=swapped),
                  dataclasses.replace(eqs2, pi=(2, 1))):
        with pytest.raises(ValueError):
            reconstruct_dream(wrong)


def test_reduced_flux_tables_worked_example():
    red1 = reduced_flux_table(2, 2, "WE", zeros=[("X", 2, 1), ("X", 1, 2)])
    assert red1[EdgeId("H", 0, 1)] == frozenset({(1, 1)})
    assert red1[EdgeId("H", 0, 2)] == frozenset({(2, 2)})
    assert red1[EdgeId("V", 1, 1)] == frozenset()
    assert red1[EdgeId("H", 1, 1)] == frozenset()
    assert red1[EdgeId("V", 1, 0)] == frozenset({(1, 1)})
    assert red1[EdgeId("V", 2, 2)] == frozenset({(2, 2)})

    red2 = reduced_flux_table(2, 2, "WE", zeros=[("Y", 2, 2)], rewrites={(2, 1): (1, 2)})
    assert red2[EdgeId("H", 0, 2)] == frozenset({(1, 2)})
    assert red2[EdgeId("V", 2, 2)] == frozenset({(1, 2)})
    assert red2[EdgeId("V", 1, 1)] == frozenset({(1, 2)})
    assert red2[EdgeId("H", 0, 1)] == frozenset({(1, 1), (1, 2)})

    # no zeros, no rewrites: the plain table
    assert reduced_flux_table(2, 2, "WE") == flux_grid(2, 2, "WE")


def test_reduced_tables_match_component_dreams():
    # the nonzero entries of each reduced table trace exactly the pipes of
    # the dream that the component reconstructs to
    for text, zeros, rewrites in [
        (DREAM1, [("X", 2, 1), ("X", 1, 2)], None),
        (DREAM2, [("Y", 2, 2)], {(2, 1): (1, 2)}),
    ]:
        d = parse_dream(text)
        red = reduced_flux_table(2, 2, "WE", zeros=zeros, rewrites=rewrites or {})
        labels = grid.edge_labels(d)
        assert red.keys() == labels.keys()
        for edge, value in red.items():
            assert bool(value) == bool(labels[edge]), (text, edge)


def test_reduced_flux_rejects_bad_input():
    with pytest.raises(ValueError):
        reduced_flux_table(2, 2, "WE", zeros=[("Q", 1, 1)])
    with pytest.raises(ValueError):
        reduced_flux_table(2, 2, "WE", rewrites={(1, 1): (1, 2), (1, 2): (1, 1)})
