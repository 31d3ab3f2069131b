"""Generic pipe dream polynomials, their recurrence, and Schubert leading forms.

The central object is G(pi): the sum of tile-weight products over all
generic dreams of a fixed shape, hybridization and connectivity.  It is
independent of the hybridization, satisfies a divided-difference recurrence
from an explicit decreasing base case, carries the double Schubert
polynomial of the minimal extension as its top B-degree coefficient, and is
exactly divisible by (A+B)^m, the quotient being the equivariant class of
the matching lower-upper component.

Summation over dreams is exact integer arithmetic throughout.  One packed
numpy sweep, ``_sweep``, over the merged frontier states of ``grid.transfer``
runs every sum, at a point (some variables set to 0) and in a mode: generic,
or nongeneric with the Schubert weight x - y on ``grid.X_TILES`` and 1 on
the other tiles.  It sums the class C(pi) = G(pi) / (A+B)^m: each tile
multiplies its state's value by one cached factor, except the elbow where
a row's own pipe turns North, which weighs 1 (every generic dream has one
per row), and the values reaching one state are merged once per cell.
Each word's C is multiplied by (A+B)^m once, at the end; nongeneric, where
every elbow weighs 1, that factor is 1.  ``class_of_e`` reads C itself.
Each merge takes the coefficient dtype its own L1-norm bound certifies.
Its (keys, coefficients) arrays become ``Polynomial`` values as they are,
so G(pi) never leaves the packed representation.  Hybridization
independence, the recurrence, the B-leading form, the mirror identity and
the class sums
(``gpd verify beta``, ``recurrence``, ``leading``, ``mirror``, ``flux``)
are decided at A = y1 = 0, where G(pi) has far fewer terms and, the
evaluation being injective on the sums (see ``reduced_weight_sums``),
loses nothing; ``gpd poly`` and ``gpd schubert`` keep the full alphabet.
The recurrence is plain ``Polynomial`` arithmetic, at that point (A+B set
to B alike) or in the full alphabet: each step is (A+B) d_i g - r_i g, the
divided difference d_i checking that its remainder vanishes, and every
operation certifies its own coefficients (L1(next) <= (4n + 1) L1(g)).
``gpd.verify`` checks these identities.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _packed, grid
from .grid import Tile, check_partial_perm, pipe_numbering
from .poly import ExactDivisionError, Polynomial, Var, alphabet, product, var_slot


def inversions(word: Sequence[int]) -> int:
    """Number of pairs i < j with word[i] > word[j]."""
    w = tuple(word)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def min_extension(pi: Sequence[int], n: int) -> tuple[int, ...]:
    """Extend an injective word to a permutation of [1..n].

    The missing columns are appended in increasing order, which adds no
    inversions among the new entries.
    """
    word = check_partial_perm(pi, len(pi), n)
    missing = sorted(set(range(1, n + 1)) - set(word))
    return word + tuple(missing)


# ---------------------------------------------------------------------------
# packed weight sums over merged frontier states
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(m: int, n: int, zero: tuple[Var, ...]) -> _packed.Packer:
    """``Packer.alphabet`` with no bits for the variables ``zero``: int32
    keys at A = y1 = 0 up to (4,5)."""
    widths = list(_packed.Packer.alphabet(m, n).widths)
    for v in zero:
        widths[var_slot(v, m, n)] = 0
    return _packed.layout(tuple(widths))


def _rekeyed(w: Polynomial, packer: _packed.Packer, dtype):
    """``w`` as a sweep factor: its keys in the sweep layout ``packer`` and
    its coefficients in ``dtype``, with its L1 norm."""
    return (w.packer.rekey(w.keys, packer), w.coeffs.astype(dtype, copy=False)), w.l1_norm()


@lru_cache(maxsize=None)
def _factor(row_type: str, t: Tile, pipe: int, j: int, m: int, n: int,
            zero: tuple[Var, ...], nongeneric: bool, dtype):
    """The factor a sweep multiplies by at tile ``t`` in column ``j`` of a
    row carrying ``pipe``, with its L1 norm (``_rekeyed``): the tile weight
    with the variables ``zero`` set to 0, which nongeneric include A, so
    (x_pipe - y_j) on the tiles of ``grid.X_TILES`` and 1, ``(None, 1)``,
    on every other tile.  Built once per coefficient dtype."""
    if nongeneric and t not in grid.X_TILES[row_type]:
        return None, 1
    w = grid.tile_weight(row_type, t, pipe, j, m, n).at_zero(*zero)
    return _rekeyed(w, _layout(m, n, zero), dtype)


# The tiles that route the side pipe North, read off ``grid.ROUTES``.
_TURNS = frozenset(t for t, (north, _) in grid.ROUTES.items() if north == grid.SIDE)


def _own_turn(t: Tile, side: int, pipe: int) -> bool:
    """Whether tile ``t``, entered from the side by the label ``side``, turns
    the row's own pipe ``pipe`` North: one tile per row and dream, the
    elbow that weighs 1 in the class sum."""
    return side == pipe and t in _TURNS


def _sweep(
    m: int, n: int, beta: str, pis: Iterable[Sequence[int]] | None,
    zero: tuple[Var, ...] = (), mode: str = "generic", classes: bool = False,
) -> dict[tuple[int, ...], Polynomial]:
    """Dream weight sums by connectivity on ``grid.transfer``, generic or
    nongeneric (``mode``, which sets A to 0 too), with the variables
    ``zero`` set to 0: the one packed driver of every sum.

    The transfer sums the class C(pi) = G(pi) / (A+B)^m.  A tile
    multiplies its state's value by its ``_factor``, except the one tile per
    row that turns the row's own pipe North (``_own_turn``), which weighs
    1.  Each word's C is then multiplied once by (A+B)^m with ``zero`` set
    to 0, a monomial at A = y1 = 0 and at B = yn = 0; by 1 with
    ``classes``, and nongeneric, where every elbow weighs 1 already.  So
    every sum runs one step rule and one final multiply.

    ``step`` returns a pending product, the parent's arrays uncopied and
    the tile's factor; each state is reduced once per cell by one
    ``_packed.merge_products`` over the products reaching it, in a buffer
    the merge owns, and so is each word's final product.  A word's C is
    dropped once that product is made, before the re-key into the value's
    own layout (keys are in ``_layout``).  Each value carries an L1 bound:
    the parent's bound times the factor's L1, summed when values merge;
    times the L1 of (A+B)^m for the final product.  Each merge takes the
    dtype its own bound certifies and reads its factors in that dtype.
    """
    grid.check_beta(beta, m)
    targets = None if pis is None else {check_partial_perm(p, m, n) for p in pis}
    phi = pipe_numbering(beta)
    zero, nongeneric = tuple(zero), mode == "nongeneric"
    if nongeneric:
        zero = (*zero, Var("A"))
    packer = _layout(m, n, zero)
    tiles = list(itertools.product(range(1, m + 1), range(1, n + 1), Tile))
    final = None if classes or nongeneric else grid._ab_power(m, n, m).at_zero(*zero)
    tables: dict = {}

    def table(dtype) -> dict:
        """(factor, L1) by tile (i, j, t), and the final (A+B)^m's under 0,
        in coefficient dtype ``dtype``."""
        if dtype not in tables:
            tables[dtype] = {
                (i, j, t): _factor(beta[i - 1], t, phi[i - 1], j, m, n, zero, nongeneric, dtype)
                for i, j, t in tiles
            }
            tables[dtype][0] = (None, 1) if final is None else _rekeyed(final, packer, dtype)
        return tables[dtype]

    # A pending product carries its factor in the dtype of the root's bound
    # (int32 unless a headroom is lowered) and its key: (factor, L1, key).
    base = _packed.coeff_dtype(1)
    pending = {key: (factor, fl1, key) for key, (factor, fl1) in table(base).items()}

    def step(value, i, j, t, side):
        if _own_turn(t, side, phi[i - 1]):
            return value[0], value[1], None, value[3]
        factor, fl1, key = pending[i, j, t]
        return value[0], value[1], factor, value[3] * fl1, key

    def merged(values, bound):
        """The merge of pending products in the dtype ``bound`` certifies;
        in another dtype than ``base`` their factors are read again by key,
        in place, so the merge still drops each piece as it reads it."""
        dtype = _packed.coeff_dtype(bound)
        if dtype is not base:
            factors = table(dtype)
            for k, v in enumerate(values):
                if v[2] is not None:
                    values[k] = v[0], v[1], factors[v[4]][0]
        return _packed.merge_products(values, dtype)

    def combine(values):
        bound = sum(v[3] for v in values)
        return (*merged(values, bound), None, bound)

    root = (np.zeros(1, dtype=packer.key_dtype), np.ones(1, dtype=base), None, 1)
    sums = grid.transfer(m, n, beta, step, root, combine, mode, targets)
    out = {}
    for word in list(sums):
        keys, coeffs, _, bound = sums.pop(word)
        factor, fl1, key = pending[0]
        keys, coeffs = merged([(keys, coeffs, factor, None, key)], bound * fl1)
        out[word] = Polynomial.from_packed(m, n, packer, keys, coeffs)
    return out


def weight_sums_by_pi(
    m: int, n: int, beta: str, pis: Iterable[Sequence[int]] | None = None
) -> dict[tuple[int, ...], Polynomial]:
    """Map connectivity -> sum of dream weights for one hybridization."""
    return _sweep(m, n, beta, pis)


ORIGIN = (Var("A"), Var("y", 1))  # A = y1 = 0, where the global checks compare G(pi)


def reduced_weight_sums(
    m: int, n: int, beta: str, pis: Iterable[Sequence[int]] | None = None,
    zero: tuple[Var, ...] = ORIGIN,
) -> dict[tuple[int, ...], Polynomial]:
    """Map connectivity -> G(pi) with the variables ``zero`` set to 0, for
    one hybridization; by default G(pi) at A = y1 = 0.

    Every tile weight is a Z-combination of u0 = A+B, up = A + x_p - y1 and
    vj = y1 - yj, which are algebraically independent, so G(pi) is a
    polynomial in them.  Setting A = y1 = 0 sends them to the independent
    B, x_p and -yj, so it loses nothing: two hybridizations have equal
    G(pi) exactly when these evaluated sums agree.  So does B = yn = 0,
    the mirror image of that point (see ``mirror_substitution``).  The
    sweep is the one of ``weight_sums_by_pi``, each tile weight cut to its
    terms free of ``zero``, so the sums carry far fewer terms.
    """
    return _sweep(m, n, beta, pis, zero)


def _weight_sums_exact(
    m: int, n: int, beta: str, targets: set[tuple[int, ...]] | None
) -> dict[tuple[int, ...], Polynomial]:
    """Dream-by-dream weight sums: the independent oracle for the engine."""
    sums: dict[tuple[int, ...], Polynomial] = {}
    for d in grid.enumerate_dreams(m, n, beta):
        pi, _ = grid.connectivity(d)
        if targets is not None and pi not in targets:
            continue
        w = grid.weight(d)
        sums[pi] = sums[pi] + w if pi in sums else w
    return sums


def generic_polynomial(m: int, n: int, beta: str, pi: Sequence[int]) -> Polynomial:
    """G(pi): sum of weights over generic dreams of the given connectivity.

    An empty sum cannot occur for a valid injective word; it would signal an
    enumeration bug and raises.
    """
    word = check_partial_perm(pi, m, n)
    sums = weight_sums_by_pi(m, n, beta, [word])
    if word not in sums:
        raise RuntimeError(f"no dream with connectivity {word}; enumeration bug")
    return sums[word]


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def base_case(m: int, n: int, pi: Sequence[int], *zero: Var) -> Polynomial:
    """Closed product for a strictly decreasing connectivity word, its
    factors taken with the variables ``zero`` set to 0: the tile weights of
    the word's one all-W dream, in which pipe p runs straight to its exit
    column pi[p], turns North on an elbow there and leaves blanks East."""
    word = check_partial_perm(pi, m, n)
    if any(word[i] <= word[i + 1] for i in range(m - 1)):
        raise ValueError(f"{word} is not decreasing")
    tiles = {-1: Tile.STRAIGHT_H, 0: Tile.ELBOW_IN, 1: Tile.BLANK}
    factors = [
        grid.tile_weight("W", tiles[(j > col) - (j < col)], p, j, m, n).at_zero(*zero)
        for p, col in enumerate(word, start=1) for j in range(1, n + 1)
    ]
    return product(m, n, factors)


def recurrence_step(g: Polynomial, i: int, *zero: Var) -> Polynomial:
    """One inductive step: from G(pi') with pi' = pi.r_i longer, recover G(pi).

    The step ((A+B) g - (A+B+x_i-x_{i+1}) r_i g) / (x_i - x_{i+1}) is, in
    closed form, (A+B) d_i g - r_i g, with d_i g = (g - r_i g) / (x_i -
    x_{i+1}) the divided difference, whose remainder must vanish; the
    variables ``zero`` (among A, B and the y) are set to 0 in A+B, which
    commutes with r_i and d_i.  Each operation certifies its coefficients
    from its operands' L1 norms: L1(g - r_i g) <= 2 L1(g), the quotient's
    at most e times that, where e <= x is its x_i degree, so L1(next) <=
    (4x + 1) L1(g) (x = n on the recurrence walk).
    """
    if not 1 <= i <= g.m - 1:
        raise ValueError(f"swap index {i} outside [1..{g.m - 1}]")
    swapped = g.swap_x(i)
    quotient, remainder = (g - swapped)._divmod_x_diff(i)
    if remainder:
        raise ExactDivisionError(f"g - r_{i} g not divisible by x{i} - x{i + 1}")
    return grid._ab_power(g.m, g.n, 1).at_zero(*zero) * quotient - swapped


def recurrence_parent(word: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """The step the recurrence walk takes to ``word``: (i, word.r_i) at its
    first ascent i, the parent one inversion longer; None when ``word`` is
    decreasing, a base case."""
    i = next((i for i in range(1, len(word)) if word[i - 1] < word[i]), None)
    if i is None:
        return None
    return i, word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :]


def _recurrence_walk(
    m: int, n: int, words: list[tuple[int, ...]], zero: tuple[Var, ...] = ()
) -> dict[tuple[int, ...], Polynomial]:
    """G(pi) for each word, with the variables ``zero`` set to 0, by
    adjacent-swap steps from the decreasing base cases.

    At each stage the first ascent is swapped (``recurrence_parent``), so
    words share their chains.
    """
    known: dict[tuple[int, ...], Polynomial] = {}

    def rec(w: tuple[int, ...]) -> Polynomial:
        if w not in known:
            parent = recurrence_parent(w)
            if parent is None:
                known[w] = base_case(m, n, w, *zero)
            else:
                known[w] = recurrence_step(rec(parent[1]), parent[0], *zero)
        return known[w]

    return {w: rec(w) for w in words}


def compute_by_recurrence(m: int, n: int, pi: Sequence[int]) -> Polynomial:
    """G(pi) from the decreasing base case by adjacent-swap steps.

    Path independence is a tested property, not an assumption here.
    """
    word = check_partial_perm(pi, m, n)
    return _recurrence_walk(m, n, [word])[word]


def recurrence_table(
    m: int, n: int, zero: tuple[Var, ...] = ()
) -> dict[tuple[int, ...], Polynomial]:
    """G(pi) for every injective word, memoized along shared swap chains;
    with ``zero`` = ``ORIGIN``, G(pi) at A = y1 = 0."""
    return _recurrence_walk(m, n, all_partial_perms(m, n), zero)


# ---------------------------------------------------------------------------
# nongeneric sums and double Schubert polynomials
# ---------------------------------------------------------------------------


def nongeneric_sums_by_pi(
    m: int, n: int, beta: str, pis: Iterable[Sequence[int]] | None = None
) -> dict[tuple[int, ...], Polynomial]:
    """Map connectivity -> sum over nongeneric dreams of the x,y products.

    The tiles of ``grid.X_TILES`` (straights in W rows, blanks in E rows)
    contribute x_{phi(i)} - y_j; every other tile contributes 1.  One
    nongeneric sweep sums the products for every word, or for ``pis``.
    """
    return _sweep(m, n, beta, pis, mode="nongeneric")


def schubert_sum(
    m: int, n: int, pi: Sequence[int], beta: str | None = None
) -> Polynomial:
    """Sum over the nongeneric dreams of one connectivity (see
    ``nongeneric_sums_by_pi``); zero when there is none.  The all-W
    hybridization is the default; agreement across hybridizations is a
    tested identity, not a runtime cost.
    """
    word = check_partial_perm(pi, m, n)
    if beta is None:
        beta = "W" * m
    sums = nongeneric_sums_by_pi(m, n, beta, [word])
    return sums.get(word, Polynomial.zero(m, n))


def double_schubert_oracle(w: Sequence[int], m: int, n: int) -> Polynomial:
    """Double Schubert polynomial of a permutation, by divided differences.

    Independent of the pipe dream machinery: starts from the product
    prod_{i+j<=N} (x_i - y_j) at the longest element of S_N and walks down
    by divided differences in x (``_schubert_walk``).  Returned in context
    (m, n), which must accommodate every variable that survives.
    """
    word = tuple(w)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"{word} is not a permutation of [1..{len(word)}]")
    return _schubert_walk(word).in_context(m, n)


@lru_cache(maxsize=None)
def _schubert_walk(word: tuple[int, ...]) -> Polynomial:
    """S_w in context (N, N) for a permutation w of [1..N]: the product at
    the longest element, else d_i S_{w.r_i} at the first ascent i.  One
    memo serves every permutation of one N, so each is built by one step."""
    nn = len(word)
    parent = recurrence_parent(word)
    if parent is None:
        _, _, xs, ys = alphabet(nn, nn)
        factors = [xs[i - 1] - ys[j - 1] for i in range(1, nn + 1) for j in range(1, nn + 1 - i)]
        return product(nn, nn, factors)
    return _schubert_walk(parent[1]).divided_difference(parent[0])


def shift_x_by_a(f: Polynomial) -> Polynomial:
    """Substitute x_i -> A + x_i for every i."""
    a, _, xs, _ = alphabet(f.m, f.n)
    return f.substitute({Var("x", i): a + xs[i - 1] for i in range(1, f.m + 1)})


def gamma_conjugate(pi: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """gamma_n . pi . gamma_m for the longest elements gamma."""
    word = check_partial_perm(pi, m, n)
    return tuple(n + 1 - word[m - i] for i in range(1, m + 1))


def mirror_substitution(f: Polynomial) -> Polynomial:
    """A <-> B, x_i -> -x_{m+1-i}, y_j -> -y_{n+1-j}.

    It takes the point A = y1 = 0 to B = yn = 0: the mirror of f, at
    A = y1 = 0, is the mirror of f at B = yn = 0.
    """
    mapping: dict[Var, tuple[int, Var]] = {Var("A"): (1, Var("B")), Var("B"): (1, Var("A"))}
    for i in range(1, f.m + 1):
        mapping[Var("x", i)] = (-1, Var("x", f.m + 1 - i))
    for j in range(1, f.n + 1):
        mapping[Var("y", j)] = (-1, Var("y", f.n + 1 - j))
    return f.signed_relabel(mapping)


def class_of_e(m: int, n: int, pi: Sequence[int]) -> Polynomial:
    """Equivariant class of the component, G(pi) / (A+B)^m: the class sum
    of the all-W sweep, read before its multiply by (A+B)^m."""
    word = check_partial_perm(pi, m, n)
    return _sweep(m, n, "W" * m, [word], classes=True)[word]


def all_partial_perms(m: int, n: int) -> list[tuple[int, ...]]:
    """Every injective word [m] -> [n], in lexicographic order."""
    return list(itertools.permutations(range(1, n + 1), m))


def all_hybridizations(m: int) -> list[str]:
    return [
        "".join("W" if (k >> (m - 1 - i)) & 1 == 0 else "E" for i in range(m))
        for k in range(2**m)
    ]
