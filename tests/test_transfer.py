"""The layer-by-layer transfer against the dream walk it replaced for sums.

Counts, weight sums and nongeneric sums from ``grid.transfer`` are compared
with the depth-first ``grid.walk`` and with dream-by-dream sums over the
enumeration stream, over every small shape, row type, mode and target set.
The merged-state counts pin that equal frontiers really share one value.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from gpd import _packed, grid, schubert
from gpd.grid import Tile, count_dreams, enumerate_dreams, pipe_numbering
from gpd.poly import Polynomial, Var, alphabet, product, var_slot
from gpd.schubert import (
    all_hybridizations,
    all_partial_perms,
    nongeneric_sums_by_pi,
    reduced_weight_sums,
    weight_sums_by_pi,
    _weight_sums_exact,
)

from conftest import SMALL_SHAPES


def target_sets(m, n):
    """None, one word, and every third word."""
    words = all_partial_perms(m, n)
    return [None, {words[len(words) // 2]}, set(words[::3])]


def nongeneric_weight(d):
    """x_{phi(i)} - y_j over W-row straights and E-row blanks of one dream."""
    _, _, xs, ys = alphabet(d.m, d.n)
    phi = pipe_numbering(d.beta)
    counted = {"W": grid.STRAIGHTS, "E": {Tile.BLANK}}
    factors = [
        xs[phi[i - 1] - 1] - ys[j - 1]
        for i in range(1, d.m + 1)
        for j in range(1, d.n + 1)
        if d.tile(i, j) in counted[d.row_type(i)]
    ]
    return product(d.m, d.n, factors)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
@pytest.mark.parametrize("mode", ["generic", "nongeneric"])
def test_counts_match_walk(m, n, mode):
    for beta in all_hybridizations(m):
        for targets in target_sets(m, n):
            leaves = {}
            for word, _ in grid.walk(m, n, beta, mode=mode, targets=targets):
                leaves[word] = leaves.get(word, 0) + 1
            counts = grid.transfer(m, n, beta, None, 1, sum, mode, targets)
            assert counts == leaves, (beta, targets)
            if targets is not None and len(targets) == 1:
                (pi,) = targets
                assert count_dreams(m, n, beta, pi, mode) == leaves.get(pi, 0)
        walked = sum(1 for _ in grid.walk(m, n, beta, mode=mode))
        assert count_dreams(m, n, beta, mode=mode) == walked


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_weight_sums_match_dream_by_dream(m, n):
    for beta in all_hybridizations(m):
        for targets in target_sets(m, n):
            exact = _weight_sums_exact(m, n, beta, targets)
            assert weight_sums_by_pi(m, n, beta, targets) == exact, (beta, targets)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_reduced_sums_are_weight_sums_at_a_y1_zero(m, n):
    zero = Polynomial.zero(m, n)
    origin = {Var("A"): zero, Var("y", 1): zero}
    for beta in all_hybridizations(m):
        full = weight_sums_by_pi(m, n, beta)
        reduced = reduced_weight_sums(m, n, beta)
        assert set(reduced) == set(full), beta
        for pi, g in full.items():
            assert reduced[pi] == g.substitute(origin), (beta, pi)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_nongeneric_sums_match_dream_by_dream(m, n):
    for beta in all_hybridizations(m):
        expected = {}
        for d in enumerate_dreams(m, n, beta, mode="nongeneric"):
            pi = grid.connectivity(d)[0]
            w = nongeneric_weight(d)
            expected[pi] = expected[pi] + w if pi in expected else w
        for targets in target_sets(m, n):
            want = {pi: s for pi, s in expected.items() if targets is None or pi in targets}
            assert nongeneric_sums_by_pi(m, n, beta, targets) == want, (beta, targets)


def pruning_target_sets(m, n):
    """Every word alone, then two multi-word sets."""
    words = all_partial_perms(m, n)
    return [{w} for w in words] + [set(words[1::2]), set(words[: len(words) // 2 + 1])]


def restricted(sums, targets):
    return {pi: v for pi, v in sums.items() if pi in targets}


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_pruned_sums_are_restricted_full_sums(m, n):
    # targets prune frontier states by exit reach; every sum over the
    # targets must still be the full sweep's sum at those words
    sweeps = (weight_sums_by_pi, reduced_weight_sums, nongeneric_sums_by_pi)
    for beta in all_hybridizations(m):
        full = [sweep(m, n, beta) for sweep in sweeps]
        for targets in pruning_target_sets(m, n):
            for sweep, sums in zip(sweeps, full):
                got = sweep(m, n, beta, targets)
                assert got == restricted(sums, targets), (sweep.__name__, beta, targets)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
@pytest.mark.parametrize("mode", ["generic", "nongeneric"])
def test_pruned_counts_are_restricted_full_counts(m, n, mode):
    for beta in all_hybridizations(m):
        full = grid.transfer(m, n, beta, None, 1, sum, mode)
        for targets in pruning_target_sets(m, n):
            counts = grid.transfer(m, n, beta, None, 1, sum, mode, targets)
            assert counts == restricted(full, targets), (beta, targets)
            if len(targets) == 1:
                (pi,) = targets
                assert count_dreams(m, n, beta, pi, mode) == full.get(pi, 0), (beta, pi)


@pytest.mark.parametrize("m,n,beta", [(5, 5, "WEEWE"), (5, 6, "EWWEW")])
def test_large_counts_match_walk(m, n, beta):
    count = count_dreams(m, n, beta)
    assert type(count) is int
    assert count == sum(1 for _ in grid.walk(m, n, beta))


def layer_sizes(m, n, beta, mode="generic", targets=None):
    """Number of merged frontier states after each cell of a transfer.

    ``combine`` runs once per state on the values that reach it.  Here a
    step's value is its cell, so a call on stepped values is one state of
    that cell; the calls that group the last layer's states by word get
    combined values (None) and are not counted.
    """
    sizes = {}

    def combine(values):
        if values[0] is not None:
            sizes[values[0]] = sizes.get(values[0], 0) + 1

    grid.transfer(m, n, beta, lambda value, i, j, t, side: (i, j), None, combine, mode, targets)
    return list(sizes.values())


@pytest.mark.parametrize(
    "m,n,mode,states,widest",
    [
        (4, 5, "generic", 1409, 300),
        (5, 5, "generic", 3209, 600),
        (5, 6, "generic", 11576, 2160),
        (4, 5, "nongeneric", 1409, 300),
    ],
)
def test_transfer_merges_equal_frontiers(m, n, mode, states, widest):
    # W...W: the walk visits 15,876 / 143,401 / 1,281,215 nodes.  In
    # nongeneric mode the crossed pairs are a set in the state key; kept in
    # arrival order they would split (4,5) into 1,473 states, widest 330.
    sizes = layer_sizes(m, n, "W" * m, mode)
    assert len(sizes) == m * n
    assert (sum(sizes), max(sizes)) == (states, widest)


@pytest.mark.parametrize(
    "m,n,pi,states,top_row_only",
    [(4, 4, (2, 3, 1, 4), 58, 208), (4, 5, (1, 2, 3, 4), 147, 526)],
)
def test_targets_prune_states_by_exit_reach(m, n, pi, states, top_row_only):
    # W...W: a pipe below W rows only exits East of where it is, so states
    # whose pipes can no longer reach their target column are dropped in
    # every row; pruning only the top row would carry ``top_row_only``
    sizes = layer_sizes(m, n, "W" * m, targets={pi})
    assert len(sizes) == m * n
    assert sum(sizes) == states < top_row_only


@pytest.mark.parametrize(
    "sweep,m,n,beta,headroom",
    [
        (weight_sums_by_pi, 3, 3, "WEW", 3**9),
        (reduced_weight_sums, 3, 4, "EWW", 3**6),
        (nongeneric_sums_by_pi, 3, 4, "WWE", 3**4),
    ],
)
def test_promotion_partway_through_a_transfer(monkeypatch, sweep, m, n, beta, headroom):
    # a lowered headroom is reached partway: each merge takes the dtype of
    # its own bound, so the first merges stay fixed-width, the ones whose
    # bound reaches the headroom hold Python ints, and the sums agree
    expected = sweep(m, n, beta)
    merges = certified_merges(monkeypatch)
    monkeypatch.setattr(_packed, "INT64_HEADROOM", headroom)
    assert sweep(m, n, beta) == expected
    kinds = [coeffs.kind for _, _, coeffs, _ in merges]
    assert kinds[0] == "i" and "O" in kinds
    for bound, _, coeffs, l1 in merges:
        assert (coeffs == object) == (bound >= headroom) and l1 <= bound


def certified_merges(monkeypatch):
    """The list that records each ``_packed.merge_products`` call as
    (the bound last certified by ``_packed.coeff_dtype``, key dtype,
    coefficient dtype, L1 of the merged coefficients)."""
    merges, bounds = [], []
    coeff_dtype, merge_products = _packed.coeff_dtype, _packed.merge_products

    def certify(bound):
        bounds.append(bound)
        return coeff_dtype(bound)

    def spy(pieces, dtype):
        keys, coeffs = merge_products(pieces, dtype)
        merges.append((bounds[-1], keys.dtype, coeffs.dtype, sum(map(abs, coeffs.tolist()))))
        return keys, coeffs

    monkeypatch.setattr(_packed, "coeff_dtype", certify)
    monkeypatch.setattr(_packed, "merge_products", spy)
    return merges


@pytest.mark.parametrize("zero", [(), schubert.ORIGIN, (Var("B"), Var("y", 4))])
def test_sweep_merges_are_certified_int32(monkeypatch, zero):
    # at (3,4) every bound is far below 2**31 - 1: every merge is int32,
    # and the keys are int32 in a layout of 31 bits or fewer, which gives
    # the variables set to 0 no bits
    layout = schubert._layout(3, 4, zero)
    assert sum(layout.widths) <= 31 and layout.key_dtype == np.int32
    assert all(layout.widths[var_slot(v, 3, 4)] == 0 for v in zero)
    expected = weight_sums_by_pi(3, 4, "WEW")
    merges = certified_merges(monkeypatch)
    sums = reduced_weight_sums(3, 4, "WEW", zero=zero)
    assert sums == {pi: g.at_zero(*zero) for pi, g in expected.items()}
    assert merges and all(
        keys == coeffs == np.int32 and l1 <= bound < _packed.INT32_HEADROOM
        for bound, keys, coeffs, l1 in merges)


def test_int32_tier_is_reached_partway(monkeypatch):
    # an int32 headroom lowered below the largest merge's bound: merges
    # below it stay int32, the others take int64, and the sums agree
    expected = weight_sums_by_pi(3, 3, "WEW")
    merges = certified_merges(monkeypatch)
    monkeypatch.setattr(_packed, "INT32_HEADROOM", 3**5)
    assert weight_sums_by_pi(3, 3, "WEW") == expected
    assert {coeffs for _, _, coeffs, _ in merges} == {np.dtype(np.int32), np.dtype(np.int64)}
    for bound, _, coeffs, l1 in merges:
        assert (coeffs == np.int32) == (bound < 3**5) and l1 <= bound


def test_promoted_sums_are_python_ints(monkeypatch):
    monkeypatch.setattr(_packed, "INT64_HEADROOM", 2)
    sums = weight_sums_by_pi(2, 3, "EW")
    assert all(g.coeffs.dtype == object for g in sums.values())
    assert all(isinstance(c, int) for g in sums.values() for c in g.coeffs)


class _Count:
    """A dream count that a weak reference can watch."""

    def __init__(self, count):
        self.count = count


@pytest.mark.parametrize("mode", ["generic", "nongeneric"])
def test_transfer_keeps_no_value_of_the_layer_before(mode):
    # step builds a child from its parent's count alone, so once a cell's
    # children are stepped no child of an earlier cell is alive, and once
    # they are combined no value of an earlier layer is alive either
    m, n = 3, 3
    stepped, combined, leaks = [], [], []  # per cell, weak references to its values
    state = {"cell": None, "combining": False}

    def alive(*refs):
        gc.collect()
        return sum(ref() is not None for ref in itertools.chain(*refs))

    def step(value, i, j, t, side):
        if (i, j) != state["cell"]:
            state.update(cell=(i, j), combining=False)
            leaks.append(((i, j), "stepped", alive(*stepped)))
            stepped.append([])
            combined.append([])
        child = _Count(value.count)
        stepped[-1].append(weakref.ref(child))
        return child

    def combine(values):
        if not state["combining"]:
            state["combining"] = True
            leaks.append((state["cell"], "combined", alive(*stepped[:-1], *combined[:-1])))
        total = _Count(sum(v.count for v in values))
        combined[-1].append(weakref.ref(total))
        return total

    for beta in all_hybridizations(m):
        stepped.clear()
        combined.clear()
        state["cell"] = None
        counts = grid.transfer(m, n, beta, step, _Count(1), combine, mode)
        assert {w: c.count for w, c in counts.items()} == grid.transfer(
            m, n, beta, None, 1, sum, mode
        )
    assert len(leaks) == 2 * m * n * 2**m
    assert [leak for leak in leaks if leak[2]] == []
