"""Generic pipe dream polynomials, their recurrence, and Schubert leading forms.

The central object is G(pi): the sum of tile-weight products over all
generic dreams of a fixed shape, hybridization and connectivity.  It is
independent of the hybridization, satisfies a divided-difference recurrence
from an explicit decreasing base case, carries the double Schubert
polynomial of the minimal extension as its top B-degree coefficient, and is
exactly divisible by (A+B)^m, the quotient being the equivariant class of
the matching lower-upper component.

Summation over dreams is exact integer arithmetic throughout.  One packed
numpy engine runs every sweep; its coefficients are int64 while an L1-norm
bound certifies them and are promoted in place to Python ints when the
bound runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _packed, grid
from .grid import PipeDream, Tile, pipe_numbering
from .poly import ExactDivisionError, Polynomial, Var, alphabet


def check_partial_perm(pi: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    word = tuple(int(v) for v in pi)
    if len(word) != m or len(set(word)) != m or not all(1 <= v <= n for v in word):
        raise ValueError(f"{word} is not an injective word of length {m} into [1..{n}]")
    return word


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
# fast packed summation engine
# ---------------------------------------------------------------------------


def _run_engine(
    m: int,
    n: int,
    beta: str,
    targets: set[tuple[int, ...]] | None,
    factors: dict[tuple[int, int, bool], tuple[np.ndarray, np.ndarray]],
    apply_elbows,
) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """Sum of packed dream weights grouped by connectivity.

    Walks the enumeration tree (rows bottom to top, cells in flow order),
    sharing partial products along the way and deferring every (A+B)
    elbow factor to ``apply_elbows`` at the leaf.  Pipe labels ride on the
    frontier so the connectivity is known without retracing; with targets,
    the top-row scan prunes exits no target can use.  Every factor has L1
    norm at most 3, so 3^(mn) bounds one dream's weight and the running sum
    of those bounds caps every bucket coefficient: coefficients stay int64
    while that certificate holds and become Python ints, buckets included,
    from the leaf where it stops holding.
    """
    phi = pipe_numbering(beta)
    leaf_bound_max = 3 ** (m * n)
    dtype = _packed.coeff_dtype(leaf_bound_max)
    one = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=dtype))
    buckets: dict[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]] = {}
    bound_total = 0
    exits_by_col: list[set[int]] | None = None
    if targets is not None:
        exits_by_col = [set() for _ in range(n + 1)]
        for word in targets:
            cols = {c: p for p, c in enumerate(word, start=1)}
            for j in range(1, n + 1):
                exits_by_col[j].add(cols.get(j, 0))

    def leaf(ids: tuple[int, ...], keys, coeffs, elbows):
        nonlocal bound_total, dtype
        pi = [0] * m
        for col, pipe in enumerate(ids, start=1):
            if pipe:
                pi[pipe - 1] = col
        word = tuple(pi)
        if targets is not None and word not in targets:
            return
        bound_total += leaf_bound_max
        if dtype is not object and bound_total >= _packed.INT64_HEADROOM:
            dtype = object
            for chunks in buckets.values():
                chunks[:] = [(k, c.astype(object)) for k, c in chunks]
        k, c = apply_elbows(keys, coeffs, elbows)
        chunks = buckets.setdefault(word, [])
        chunks.append((k, c.astype(dtype, copy=False)))
        if len(chunks) >= 64:
            ck = np.concatenate([k for k, _ in chunks])
            cc = np.concatenate([c for _, c in chunks])
            chunks[:] = [_packed.merge(ck, cc)]

    def do_row(i: int, south_ids: tuple[int, ...], keys, coeffs, elbows):
        west_going = beta[i - 1] == "W"
        cols = list(range(1, n + 1)) if west_going else list(range(n, 0, -1))
        north = [0] * n

        def cell(k: int, side_id: int, keys, coeffs, elbows):
            if k == n:
                if side_id == 0:
                    if i == 1:
                        leaf(tuple(north), keys, coeffs, elbows)
                    else:
                        do_row(i - 1, tuple(north), keys, coeffs, elbows)
                return
            j = cols[k]
            south_id = south_ids[j - 1]
            for t in grid._TILE_CHOICES[(side_id != 0, south_id != 0)]:
                if t in (Tile.STRAIGHT_V, Tile.CROSS):
                    north_id, out_side = south_id, side_id
                elif t is Tile.ELBOW_IN:
                    north_id, out_side = side_id, 0
                elif t is Tile.ELBOW_OUT:
                    north_id, out_side = 0, south_id
                elif t is Tile.DOUBLE_ELBOW:
                    north_id, out_side = side_id, south_id
                else:  # BLANK, STRAIGHT_H
                    north_id, out_side = 0, side_id
                if i == 1 and exits_by_col is not None and north_id not in exits_by_col[j]:
                    continue
                if t in grid.ELBOWS:
                    nk, nc, ne = keys, coeffs, elbows + 1
                else:
                    fk, fc = factors[(i, j, t in grid.STRAIGHTS)]
                    nk, nc = _packed.mul_factor(keys, coeffs, fk, fc)
                    ne = elbows
                north[j - 1] = north_id
                cell(k + 1, out_side, nk, nc, ne)
            north[j - 1] = 0

        cell(0, phi[i - 1], keys, coeffs, elbows)

    do_row(m, (0,) * n, *one, 0)

    out = {}
    for word, chunks in buckets.items():
        keys = np.concatenate([k for k, _ in chunks])
        coeffs = np.concatenate([c for _, c in chunks])
        out[word] = _packed.merge(keys, coeffs)
    return out


def reduced_weight_sums(
    m: int, n: int, beta: str, pis=None
) -> dict[tuple[int, ...], dict[int, int]]:
    """Weight sums rewritten in the kernel basis u0, u1..um, v2..vn.

    Every tile weight is a Z-combination of u0 = A+B, up = A + x_p - y1 and
    vj = y1 - yj, so a sum of weights determines and is determined by its
    expansion in these coordinates: two hybridizations have equal pipe
    dream polynomials exactly when the reduced expansions agree.  Elbow
    weights become the single variable u0, which keeps these expansions
    small enough for exhaustive hybridization sweeps.

    Returns, per connectivity, a dict from packed exponent key to integer
    coefficient.  The key layout is the ``Packer`` of slots u0, u1..um,
    v2..vn with degree bounds mn, n and m; it depends only on (m, n).
    """
    grid.check_beta(beta, m)
    targets = None
    if pis is not None:
        targets = {check_partial_perm(p, m, n) for p in pis}
    packer = _packed.Packer(m, n, [m * n] + [n] * m + [m] * (n - 1))
    unit = [1 << s for s in packer.shifts]  # key of each kernel variable
    phi = pipe_numbering(beta)
    factors = {}
    for i in range(1, m + 1):
        p = phi[i - 1]
        for j in range(1, n + 1):
            plus = {unit[p]: 1}  # up ( + vj )
            minus = {unit[0]: 1, unit[p]: -1}  # u0 - up ( - vj )
            if j > 1:
                plus[unit[m + j - 1]] = 1
                minus[unit[m + j - 1]] = -1
            sign_plus = beta[i - 1] == "W"
            for straight in (True, False):
                rep = plus if (straight == sign_plus) else minus
                fk = np.array(list(rep), dtype=packer.key_dtype)
                fc = np.array(list(rep.values()), dtype=np.int64)
                factors[(i, j, straight)] = (fk, fc)

    def apply_elbows(keys, coeffs, e):
        return keys + e, coeffs  # u0^e is a bare exponent shift in slot 0

    raw = _run_engine(m, n, beta, targets, factors, apply_elbows)
    return {word: dict(zip(k.tolist(), c.tolist())) for word, (k, c) in raw.items()}


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


def weight_sums_by_pi(
    m: int, n: int, beta: str, pis: Iterable[Sequence[int]] | None = None
) -> dict[tuple[int, ...], Polynomial]:
    """Map connectivity -> sum of dream weights for one hybridization."""
    grid.check_beta(beta, m)
    targets = None
    if pis is not None:
        targets = {check_partial_perm(p, m, n) for p in pis}
    packer = _packed.Packer.alphabet(m, n)
    phi = pipe_numbering(beta)
    factors = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for straight, t in ((True, Tile.STRAIGHT_H), (False, Tile.BLANK)):
                w = grid.tile_weight(beta[i - 1], t, phi[i - 1], j, m, n)
                factors[(i, j, straight)] = packer.pack_poly(w)
    ab_packed = [packer.pack_poly(grid._ab_power(m, n, e)) for e in range(m * n + 1)]

    def apply_elbows(keys, coeffs, e):
        return _packed.mul_factor(keys, coeffs, *ab_packed[e])

    raw = _run_engine(m, n, beta, targets, factors, apply_elbows)
    return {word: packer.unpack(k, c) for word, (k, c) in raw.items()}


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


def base_case(m: int, n: int, pi: Sequence[int]) -> Polynomial:
    """Closed product for a strictly decreasing connectivity word."""
    word = check_partial_perm(pi, m, n)
    if any(word[i] <= word[i + 1] for i in range(m - 1)):
        raise ValueError(f"{word} is not decreasing")
    a, b, xs, ys = alphabet(m, n)
    result = (a + b) ** m
    for i in range(1, m + 1):
        for j in range(1, word[i - 1]):
            result = result * (a + xs[i - 1] - ys[j - 1])
        for j in range(word[i - 1] + 1, n + 1):
            result = result * (b - xs[i - 1] + ys[j - 1])
    return result


def recurrence_step(g: Polynomial, i: int) -> Polynomial:
    """One inductive step: from G(pi') with pi' = pi.r_i longer, recover G(pi).

    Computes ((A+B) g - (A+B+x_i-x_{i+1}) r_i g) / (x_i - x_{i+1}); the
    division must be exact.
    """
    m, n = g.m, g.n
    a, b, xs, _ = alphabet(m, n)
    diff = xs[i - 1] - xs[i]
    num = (a + b) * g - (a + b + diff) * g.swap_x(i)
    quot, rem = num._divmod_x_diff(i)
    if rem:
        raise ExactDivisionError(f"recurrence numerator not divisible by x{i} - x{i + 1}")
    return quot


def compute_by_recurrence(m: int, n: int, pi: Sequence[int]) -> Polynomial:
    """G(pi) from the decreasing base case by adjacent-swap steps.

    At each stage the lexicographically first ascent is swapped; path
    independence is a tested property, not an assumption here.
    """
    word = check_partial_perm(pi, m, n)

    def rec(w: tuple[int, ...]) -> Polynomial:
        for i in range(m - 1):
            if w[i] < w[i + 1]:
                longer = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                return recurrence_step(rec(longer), i + 1)
        return base_case(m, n, w)

    return rec(word)


def inverse_step(g: Polynomial, i: int) -> Polynomial:
    """((A+B) d_i - r_i) applied to g; sends G(pi) to G(pi.r_i) one step longer."""
    a, b, _, _ = alphabet(g.m, g.n)
    return (a + b) * g.divided_difference(i) - g.swap_x(i)


def recurrence_table(m: int, n: int) -> dict[tuple[int, ...], Polynomial]:
    """G(pi) for every injective word, memoized along shared swap chains."""
    memo: dict[tuple[int, ...], Polynomial] = {}

    def rec(w: tuple[int, ...]) -> Polynomial:
        if w in memo:
            return memo[w]
        for i in range(m - 1):
            if w[i] < w[i + 1]:
                longer = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                g = recurrence_step(rec(longer), i + 1)
                break
        else:
            g = base_case(m, n, w)
        memo[w] = g
        return g

    for w in all_partial_perms(m, n):
        rec(w)
    return memo


# ---------------------------------------------------------------------------
# nongeneric sums and double Schubert polynomials
# ---------------------------------------------------------------------------


def schubert_sum(
    m: int, n: int, pi: Sequence[int], beta: str | None = None
) -> Polynomial:
    """Sum over nongeneric dreams of the x,y products.

    Straight tiles in W rows and blank tiles in E rows contribute
    x_{phi(i)} - y_j; every other tile contributes 1.  The all-W
    hybridization is the default; agreement across hybridizations is a
    tested identity, not a runtime cost.
    """
    word = check_partial_perm(pi, m, n)
    if beta is None:
        beta = "W" * m
    grid.check_beta(beta, m)
    phi = pipe_numbering(beta)
    _, _, xs, ys = alphabet(m, n)
    total = Polynomial.zero(m, n)
    for d in grid.enumerate_dreams(m, n, beta, word, mode="nongeneric"):
        term = Polynomial.const(1, m, n)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                t = d.tile(i, j)
                counts = (
                    t in grid.STRAIGHTS
                    if d.row_type(i) == "W"
                    else t is Tile.BLANK
                )
                if counts:
                    term = term * (xs[phi[i - 1] - 1] - ys[j - 1])
        total = total + term
    return total


def double_schubert_oracle(w: Sequence[int], m: int, n: int) -> Polynomial:
    """Double Schubert polynomial of a permutation, by divided differences.

    Independent of the pipe dream machinery: starts from the product
    prod_{i+j<=N} (x_i - y_j) at the longest element of S_N and walks down
    by divided differences in x.  Returned in context (m, n), which must
    accommodate every variable that survives.
    """
    word = tuple(w)
    nn = len(word)
    if sorted(word) != list(range(1, nn + 1)):
        raise ValueError(f"{word} is not a permutation of [1..{nn}]")
    _, _, xs, ys = alphabet(nn, nn)
    poly = Polynomial.const(1, nn, nn)
    for i in range(1, nn + 1):
        for j in range(1, nn + 1 - i):
            poly = poly * (xs[i - 1] - ys[j - 1])
    longest = tuple(range(nn, 0, -1))
    v = word
    ascents: list[int] = []
    while v != longest:
        for i in range(nn - 1):
            if v[i] < v[i + 1]:
                ascents.append(i + 1)
                v = v[:i] + (v[i + 1], v[i]) + v[i + 2 :]
                break
    for i in reversed(ascents):
        poly = poly.divided_difference(i)
    return poly.in_context(m, n)


def shift_x_by_a(f: Polynomial) -> Polynomial:
    """Substitute x_i -> A + x_i for every i."""
    a, _, xs, _ = alphabet(f.m, f.n)
    return f.substitute({Var("x", i): a + xs[i - 1] for i in range(1, f.m + 1)})


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _weight_b_degree(d: PipeDream) -> int:
    """B-degree of a dream weight, read off the tile classes."""
    deg = 0
    for i in range(1, d.m + 1):
        for j in range(1, d.n + 1):
            t = d.tile(i, j)
            if t in grid.ELBOWS:
                deg += 1
            elif d.row_type(i) == "W" and t is Tile.BLANK:
                deg += 1
            elif d.row_type(i) == "E" and t in grid.STRAIGHTS:
                deg += 1
    return deg


def _is_nongeneric(d: PipeDream) -> bool:
    for i in range(1, d.m + 1):
        banned = Tile.STRAIGHT_V if d.row_type(i) == "W" else Tile.DOUBLE_ELBOW
        if banned in d.tiles[i - 1]:
            return False
    _, crossings = grid.connectivity(d)
    return len(set(crossings)) == len(crossings)


def b_leading_check(
    m: int, n: int, pi: Sequence[int], betas: Iterable[str] | None = None
) -> CheckReport:
    """Verify the B-leading form of G(pi) against the nongeneric sum.

    Checks, per hybridization: the B-degree equals mn - inv(extension), the
    leading coefficient equals the nongeneric sum with x_i -> A + x_i, only
    nongeneric dreams attain the top B-degree, and the nongeneric sum
    matches the independent double Schubert construction.
    """
    word = check_partial_perm(pi, m, n)
    report = CheckReport(f"b-leading pi={word}")
    ext = min_extension(word, n)
    expected_deg = m * n - inversions(ext)
    oracle = double_schubert_oracle(ext, m, n)
    if betas is None:
        betas = all_hybridizations(m)
    for beta in betas:
        s = schubert_sum(m, n, word, beta)
        if s != oracle:
            report.fail(f"pi={word} beta={beta}: nongeneric sum differs from oracle")
        g = generic_polynomial(m, n, beta, word)
        deg, coeff = g.leading_form(Var("B"))
        if deg != expected_deg:
            report.fail(f"pi={word} beta={beta}: B-degree {deg} != {expected_deg}")
        if coeff != shift_x_by_a(s):
            report.fail(f"pi={word} beta={beta}: leading coefficient mismatch")
        for d in grid.enumerate_dreams(m, n, beta, word):
            bdeg = _weight_b_degree(d)
            if _is_nongeneric(d):
                if bdeg != expected_deg:
                    report.fail(
                        f"pi={word} beta={beta}: nongeneric dream of B-degree {bdeg}"
                    )
            elif bdeg >= expected_deg:
                report.fail(
                    f"pi={word} beta={beta}: generic-only dream reaches B-degree {bdeg}"
                )
    return report


def gamma_conjugate(pi: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """gamma_n . pi . gamma_m for the longest elements gamma."""
    word = check_partial_perm(pi, m, n)
    return tuple(n + 1 - word[m - i] for i in range(1, m + 1))


def mirror_substitution(f: Polynomial) -> Polynomial:
    """A <-> B, x_i -> -x_{m+1-i}, y_j -> -y_{n+1-j}."""
    mapping: dict[Var, tuple[int, Var]] = {Var("A"): (1, Var("B")), Var("B"): (1, Var("A"))}
    for i in range(1, f.m + 1):
        mapping[Var("x", i)] = (-1, Var("x", f.m + 1 - i))
    for j in range(1, f.n + 1):
        mapping[Var("y", j)] = (-1, Var("y", f.n + 1 - j))
    return f.signed_relabel(mapping)


def mirror_check(m: int, n: int, pi: Sequence[int]) -> CheckReport:
    """G(pi) equals G(gamma.pi.gamma) after the mirror substitution."""
    word = check_partial_perm(pi, m, n)
    report = CheckReport(f"mirror pi={word}")
    conj = gamma_conjugate(word, m, n)
    lhs = generic_polynomial(m, n, "W" * m, word)
    rhs = generic_polynomial(m, n, "W" * m, conj)
    if lhs != mirror_substitution(rhs):
        report.fail(f"pi={word}: mirror identity fails against {conj}")
    return report


def class_of_e(m: int, n: int, pi: Sequence[int]) -> Polynomial:
    """Equivariant class of the component: G(pi) / (A+B)^m, exactly."""
    word = check_partial_perm(pi, m, n)
    g = generic_polynomial(m, n, "W" * m, word)
    a, b, _, _ = alphabet(m, n)
    return g.divide_exact((a + b) ** m)


def all_partial_perms(m: int, n: int) -> list[tuple[int, ...]]:
    """Every injective word [m] -> [n], in lexicographic order."""
    words: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == m:
            words.append(prefix)
            return
        for v in range(1, n + 1):
            if v not in prefix:
                rec(prefix + (v,))

    rec(())
    return words


def all_hybridizations(m: int) -> list[str]:
    return [
        "".join("W" if (k >> (m - 1 - i)) & 1 == 0 else "E" for i in range(m))
        for k in range(2**m)
    ]
