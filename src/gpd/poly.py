"""Exact sparse polynomial arithmetic over the integers.

Everything downstream (tile weights, pipe dream polynomials, vertex-model
checks, component classes) lives in the ring Z[A, B, x1..xm, y1..yn] for a
fixed grid size (m, n).  A :class:`Polynomial` carries that context with it;
mixing contexts is an error, never an implicit promotion.

A polynomial is stored as two arrays of the packed backend
(:mod:`gpd._packed`): its exponent vectors, one slot per variable in the
order A, B, x1..xm, y1..yn, packed into integer keys in ascending order,
and their nonzero coefficients.  The key layout is the value's own: each
slot is as wide as its largest exponent needs.  So every value has a single
canonical form, and two polynomials are equal exactly when their layouts
and arrays are.  Keys and coefficients are int32 or int64 within the
limits ``_packed`` certifies and Python ints beyond them, hence arbitrary
precision.  Ring operations, variable permutations, leading forms, setting
variables to 0 and division by x_i - x_{i+1} run on the arrays, and so does
the text format; exponent tuples are decoded only by ``items``,
``sorted_terms`` and the term-by-term methods ``divide_exact``,
``evaluate`` and ``substitute``.

Canonical term order (used by :meth:`Polynomial.sorted_terms` and the text
format): total degree descending, ties broken by the exponent vector,
lexicographically descending in the variable order above.  Ascending keys
are lexicographically ascending, so within one degree it is the keys read
backwards, and the text streams it one chunk at a time, degree by
descending degree.  :func:`_canonical_sort_key` is the same order as a
Python key and drives the leading term of exact division.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import _packed

Exponents = tuple[int, ...]


class ContextMismatchError(ValueError):
    """Combining polynomials that live in different (m, n) contexts."""


class ExactDivisionError(ArithmeticError):
    """A division that is required to be exact left a remainder."""


class ParseError(ValueError):
    """Malformed polynomial text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Var(NamedTuple):
    """A variable of the alphabet: kind 'A', 'B', 'x' or 'y' plus 1-based index.

    A and B carry no index (index 0); x indices run in [1..m] and y indices
    in [1..n].
    """

    kind: str
    index: int = 0

    def name(self) -> str:
        if self.kind in ("A", "B"):
            return self.kind
        return f"{self.kind}{self.index}"


def var_slot(v: Var, m: int, n: int) -> int:
    """Position of ``v`` in the exponent tuple for context (m, n)."""
    if v.kind == "A":
        if v.index:
            raise ValueError("A carries no index")
        return 0
    if v.kind == "B":
        if v.index:
            raise ValueError("B carries no index")
        return 1
    if v.kind == "x":
        if not 1 <= v.index <= m:
            raise ValueError(f"x index {v.index} outside [1..{m}]")
        return 1 + v.index
    if v.kind == "y":
        if not 1 <= v.index <= n:
            raise ValueError(f"y index {v.index} outside [1..{n}]")
        return 1 + m + v.index
    raise ValueError(f"unknown variable kind {v.kind!r}")


def slot_var(slot: int, m: int, n: int) -> Var:
    """Inverse of :func:`var_slot`."""
    if slot == 0:
        return Var("A")
    if slot == 1:
        return Var("B")
    if 2 <= slot <= m + 1:
        return Var("x", slot - 1)
    if m + 2 <= slot <= m + n + 1:
        return Var("y", slot - m - 1)
    raise ValueError(f"slot {slot} outside context ({m}, {n})")


def _canonical_sort_key(exps: Exponents):
    return (-sum(exps), tuple(-e for e in exps))


# Terms per rendered chunk of Polynomial.format_chunks: only one chunk's byte
# matrices and text are alive at a time, not one per term of a large polynomial.
# At 8192, rendering was the peak of `gpd poly --m 4 --n 4`, 2 MB above it at 2048.
_FORMAT_CHUNK = 2048

# Adjacent exponent slots whose fields together span at most this many bits
# are rendered together, as one block of the text.
_GROUP_BITS = 8

# The sign column of a term: row 0 for a positive coefficient, row 1 negative.
_SIGNS = np.frombuffer(b" +  - ", dtype=np.uint8).reshape(2, 3)


def _byte_table(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 matrix."""
    return np.array(texts, dtype=np.bytes_).view(np.uint8).reshape(len(texts), -1)


def _digit_bytes(mags: np.ndarray) -> np.ndarray:
    """The decimal digits of positive integers, one NUL-padded row each."""
    if mags.dtype == object:
        return mags.astype(np.bytes_).view(np.uint8).reshape(len(mags), -1)
    powers = 10 ** np.arange(len(str(mags.max())) - 1, -1, -1, dtype=np.int64)
    col = mags[:, None]
    return np.where(col >= powers, col // powers % 10 + ord("0"), 0).astype(np.uint8)


def _gather(values: np.ndarray, table_of) -> np.ndarray:
    """One row of ``table_of(distinct values)`` per value, so the table
    renders each distinct value once."""
    distinct, rows = np.unique(values, return_inverse=True)
    return np.take(table_of(distinct), rows, axis=0)


def _take_rows(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row ``v`` of the table for each value ``v``."""
    return np.take(table, values.astype(np.intp, copy=False), axis=0)


def _power_rows(name: str, exps: np.ndarray) -> np.ndarray:
    """"*name^e" rows of exponents: "" for e = 0, "*name" for e = 1."""
    return _byte_table(
        ["" if e == 0 else f"*{name}" if e == 1 else f"*{name}^{e}" for e in exps.tolist()]
    )


def _group_rows(slots: list[tuple[int, int, str]], values: np.ndarray) -> np.ndarray:
    """The "*name^e" blocks of a group's slots for each joint value, slot
    (shift, mask, name) holding the exponent ``values >> shift & mask``."""
    return np.hstack([_gather((values >> shift) & mask, functools.partial(_power_rows, name))
                      for shift, mask, name in slots])


def _monomial_blocks(packer: _packed.Packer, m: int, n: int, terms: int):
    """(shift, mask, render) of each group of adjacent live slots, which
    spans at most ``_GROUP_BITS`` bits unless it is one wider slot: the
    group's joint value is ``keys >> shift & mask`` and ``render`` turns
    joint values into byte rows.  With no more joint values than ``terms``,
    it looks them up in a table of every joint value, made here; otherwise
    it renders the distinct values of each chunk, so any exponent renders."""
    groups: list[list[int]] = []
    for k, w in enumerate(packer.widths):
        if w and groups and sum(packer.widths[j] for j in groups[-1]) + w <= _GROUP_BITS:
            groups[-1].append(k)
        elif w:
            groups.append([k])
    blocks = []
    for group in groups:
        low, span = packer.shifts[group[-1]], sum(packer.widths[k] for k in group)
        slots = [(packer.shifts[k] - low, packer.masks[k], slot_var(k, m, n).name()) for k in group]
        if 1 << span <= terms:
            render = functools.partial(_take_rows, _group_rows(slots, np.arange(1 << span)))
        else:
            render = functools.partial(_gather, table_of=functools.partial(_group_rows, slots))
        blocks.append((low, (1 << span) - 1, render))
    return blocks


class Polynomial:
    """Immutable exact polynomial in Z[A, B, x1..xm, y1..yn].

    ``keys`` are the packed exponent vectors in ascending order, in the
    layout ``packer`` of the value's own slot widths, and ``coeffs`` their
    nonzero coefficients.  Neither array is written after construction.
    """

    __slots__ = ("m", "n", "packer", "keys", "coeffs")

    def __init__(self, m: int, n: int, terms: Mapping[Exponents, int] | None = None):
        if m < 0 or n < 0:
            raise ValueError("context sizes must be nonnegative")
        terms = terms or {}
        self._set(m, n, *_encode(m, n, list(terms), list(terms.values())))

    def _set(self, m, n, packer, keys, coeffs) -> None:
        keys.flags.writeable = coeffs.flags.writeable = False
        self.m, self.n, self.packer, self.keys, self.coeffs = m, n, packer, keys, coeffs

    @classmethod
    def _wrap(cls, m: int, n: int, packer, keys, coeffs) -> "Polynomial":
        """Wrap arrays that are already canonical (internal)."""
        p = object.__new__(cls)
        p._set(m, n, packer, keys, coeffs)
        return p

    def __reduce__(self):
        """Pickled as its arrays: the copy is rebuilt by ``_wrap``, so its
        arrays are read-only again and its layout is the shared one."""
        return Polynomial._wrap, (self.m, self.n, self.packer, self.keys, self.coeffs)

    @classmethod
    def from_packed(cls, m: int, n: int, packer, keys, coeffs) -> "Polynomial":
        """The polynomial of ascending, distinct keys in ``packer`` and nonzero
        coefficients, as ``_packed.merge`` returns them, in its own layout."""
        tight = packer.tight(keys)
        return cls._wrap(m, n, tight, packer.rekey(keys, tight), coeffs)

    @classmethod
    def zero(cls, m: int, n: int) -> "Polynomial":
        return cls.const(0, m, n)

    @classmethod
    def const(cls, value: int, m: int, n: int) -> "Polynomial":
        terms = [value] if value else []
        coeffs = np.array(terms, dtype=_packed.coeff_dtype(abs(value)))
        packer = _packed.layout((0,) * (2 + m + n))
        keys = np.zeros(len(terms), dtype=packer.key_dtype)
        return cls._wrap(m, n, packer, keys, coeffs)

    @classmethod
    def var(cls, v: Var, m: int, n: int) -> "Polynomial":
        slot = var_slot(v, m, n)
        widths = [0] * (2 + m + n)
        widths[slot] = 1
        packer = _packed.layout(tuple(widths))
        keys = np.array([packer.unit(slot)], dtype=packer.key_dtype)
        return cls._wrap(m, n, packer, keys, np.ones(1, _packed.coeff_dtype(1)))

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, int]]:
        """Terms decoded to (exponent tuple, coefficient), in key order."""
        return zip(zip(*self.packer.fields(self.keys)), self.coeffs.tolist())

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms in canonical order (degree descending, then lex descending)."""
        order = np.concatenate([np.empty(0, np.intp), *self._canonical_chunks()])
        cols = self.packer.fields(self.keys[order])
        return list(zip(zip(*cols), self.coeffs[order].tolist()))

    def _degrees(self) -> np.ndarray:
        """Total degree of each term, exact for any exponent, in the smallest
        dtype that holds every degree; summed ``_FORMAT_CHUNK`` terms at a time."""
        packer = self.packer
        degrees = np.zeros(len(self), dtype=np.min_scalar_type(sum(packer.masks)))
        for start in range(0, len(self), _FORMAT_CHUNK):
            keys, out = self.keys[start:start + _FORMAT_CHUNK], degrees[start:start + _FORMAT_CHUNK]
            for k, w in enumerate(packer.widths):
                if w:
                    out += packer.field(keys, k).astype(degrees.dtype, copy=False)
        return degrees

    def _canonical_chunks(self) -> Iterator[np.ndarray]:
        """Term indices in canonical order, ``_FORMAT_CHUNK`` at a time.

        Read backwards, the keys descend lexicographically in (A, B, x.., y..),
        so the terms of one degree in canonical order are its indices read
        backwards: a homogeneous polynomial's order is the keys read
        backwards.  The distinct degrees, read off each sorted chunk (as
        ``np.unique`` would not: it imports ``numpy.ma``), are walked in
        descending order, each found by a backwards scan of the degrees, one
        chunk at a time.
        """
        degrees = self._degrees()
        distinct: set = set()
        for start in range(0, len(self), _FORMAT_CHUNK):
            chunk = np.sort(degrees[start:start + _FORMAT_CHUNK])
            distinct.update(chunk[np.append(chunk[1:] != chunk[:-1], True)].tolist())

        def parts():
            for d in sorted(distinct, reverse=True):
                for end in range(len(self), 0, -_FORMAT_CHUNK):
                    start = max(0, end - _FORMAT_CHUNK)
                    yield np.flatnonzero(degrees[start:end] == d)[::-1] + start

        return _rechunk(parts(), _FORMAT_CHUNK)

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return len(self.keys) > 0

    def is_zero(self) -> bool:
        return not self

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return int(self._degrees().max()) if self else -1

    def l1_norm(self) -> int:
        return _packed.l1(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _check_context(self, other: "Polynomial") -> None:
        if self.m != other.m or self.n != other.n:
            raise ContextMismatchError(
                f"context ({self.m}, {self.n}) vs ({other.m}, {other.n})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.packer.widths == other.packer.widths
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return total(self.m, self.n, (self, other))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return total(self.m, self.n, (self, -other))

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(self.m, self.n, self.packer, self.keys, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.m, self.n)
            dtype = _packed.coeff_dtype(abs(other) * self.l1_norm())
            coeffs = self.coeffs.astype(dtype, copy=False) * other
            return Polynomial._wrap(self.m, self.n, self.packer, self.keys, coeffs)
        self._check_context(other)
        return product(self.m, self.n, (self, other))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        return product(self.m, self.n, [self] * k)

    # -- variable permutations ------------------------------------------------

    def _relabel(self, m: int, n: int, dst: list[int], flip=frozenset()) -> "Polynomial":
        """Move each occurring slot k to slot dst[k] of context (m, n), negating
        the terms of odd degree in the slots of ``flip``.  ``dst`` must be
        injective on occurring slots, so no two terms meet."""
        src = self.packer
        widths = [0] * (2 + m + n)
        for k, w in enumerate(src.widths):
            if w:
                widths[dst[k]] = w
        packer = _packed.layout(tuple(widths))
        keys = np.zeros(len(self), dtype=packer.key_dtype)
        odd = np.zeros(len(self), dtype=bool)
        for k, w in enumerate(src.widths):
            if w:
                e = src.field(self.keys, k)
                keys += e.astype(packer.key_dtype, copy=False) << packer.shifts[dst[k]]
                if k in flip:
                    odd ^= (e & 1).astype(bool)
        coeffs = np.where(odd, -self.coeffs, self.coeffs) if odd.any() else self.coeffs
        order = np.argsort(keys, kind="stable")
        return Polynomial._wrap(m, n, packer, keys[order], coeffs[order])

    def swap_x(self, i: int) -> "Polynomial":
        """Exchange x_i and x_{i+1} in every term (requires 1 <= i <= m-1)."""
        if not 1 <= i <= self.m - 1:
            raise ValueError(f"swap index {i} outside [1..{self.m - 1}]")
        a = var_slot(Var("x", i), self.m, self.n)
        dst = list(range(2 + self.m + self.n))
        dst[a], dst[a + 1] = a + 1, a
        return self._relabel(self.m, self.n, dst)

    def signed_relabel(self, mapping: Mapping[Var, tuple[int, Var]]) -> "Polynomial":
        """Apply a signed variable permutation, e.g. x_i -> -x_{m+1-i}.

        ``mapping`` sends a Var to (sign, Var); unmapped variables stay put.
        The mapping must be injective on slots.
        """
        width = 2 + self.m + self.n
        perm = list(range(width))
        flip = set()
        for src, (sign, dst) in mapping.items():
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            s = var_slot(src, self.m, self.n)
            perm[s] = var_slot(dst, self.m, self.n)
            if sign < 0:
                flip.add(s)
        if len(set(perm)) != width:
            raise ValueError("relabeling is not injective")
        return self._relabel(self.m, self.n, perm, flip)

    def in_context(self, m: int, n: int) -> "Polynomial":
        """Recast into context (m, n), preserving variable indices.

        Shrinking is allowed only if no dropped variable actually occurs.
        """
        dst = []
        for s, w in enumerate(self.packer.widths):
            v = slot_var(s, self.m, self.n)
            try:
                dst.append(var_slot(v, m, n))
            except ValueError:
                if w:
                    raise ContextMismatchError(
                        f"{v.name()} does not fit context ({m}, {n})"
                    ) from None
                dst.append(-1)
        return self._relabel(m, n, dst)

    # -- divided differences ----------------------------------------------------

    def _divmod_x_diff(self, i: int) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of division by (x_i - x_{i+1}).

        A term c x_i^e rest has quotient terms c rest x_i^k x_{i+1}^(e-1-k),
        k < e, and remainder c rest x_{i+1}^e: the remainder is f with
        x_i -> x_{i+1}.  The x_{i+1} slot widens to hold both degrees, and
        the unmerged quotient has L1 at most max(e) L1(f).
        """
        if not 1 <= i <= self.m - 1:
            raise ValueError(f"division index {i} outside [1..{self.m - 1}]")
        a = var_slot(Var("x", i), self.m, self.n)
        widths = list(self.packer.widths)
        wa, wb = widths[a], widths[a + 1]
        widths[a + 1] = max(wa, wb) + (wa > 0 and wb > 0)
        packer = _packed.layout(tuple(widths))
        keys = self.packer.rekey(self.keys, packer)
        ua, ub = packer.unit(a), packer.unit(a + 1)
        e = packer.field(keys, a)
        rest = keys - e * ua
        rem = _packed.merge(rest + e * ub, self.coeffs)
        reps = e.astype(np.int64)
        dtype = _packed.coeff_dtype(int(reps.max(initial=1)) * self.l1_norm())
        src = np.repeat(np.arange(len(keys)), reps)
        k = (np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps)).astype(keys.dtype)
        quot = _packed.merge(
            rest[src] + k * ua + (e[src] - 1 - k) * ub, self.coeffs.astype(dtype, copy=False)[src]
        )
        return (
            Polynomial.from_packed(self.m, self.n, packer, *quot),
            Polynomial.from_packed(self.m, self.n, packer, *rem),
        )

    def divided_difference(self, i: int) -> "Polynomial":
        """(f - swap_x(f, i)) / (x_i - x_{i+1}), with the division exact.

        The numerator is antisymmetric in (x_i, x_{i+1}) so exactness is
        automatic; it is still re-checked by multiplication as insurance
        against upstream bugs.
        """
        if not 1 <= i <= self.m - 1:
            raise ValueError(f"divided difference index {i} outside [1..{self.m - 1}]")
        num = self - self.swap_x(i)
        quot, rem = num._divmod_x_diff(i)
        if rem:
            raise ExactDivisionError(
                f"f - r_{i} f not divisible by x{i} - x{i + 1}"
            )
        diff = Polynomial.var(Var("x", i), self.m, self.n) - Polynomial.var(
            Var("x", i + 1), self.m, self.n
        )
        if quot * diff != num:
            raise ExactDivisionError("divided difference re-multiplication failed")
        return quot

    # -- leading forms and exact division -------------------------------------

    def leading_form(self, v: Var) -> tuple[int, "Polynomial"]:
        """Max exponent of ``v`` and the coefficient polynomial at that power.

        Returns (d, c) with c = sum of terms of v-degree d, divided by v^d.
        Errors on the zero polynomial.
        """
        if not self:
            raise ValueError("leading form of the zero polynomial")
        s = var_slot(v, self.m, self.n)
        e = self.packer.field(self.keys, s)
        d = int(e.max())
        top = e == d
        keys = self.keys[top] - d * self.packer.unit(s)
        return d, Polynomial.from_packed(self.m, self.n, self.packer, keys, self.coeffs[top])

    def divide_exact(self, g: "Polynomial") -> "Polynomial":
        """Return q with self = q * g, or raise ExactDivisionError.

        Long division against the single divisor g in the canonical term
        order, term by term on decoded exponents (leading terms tracked
        through a lazy-deletion heap); the result is verified by
        re-multiplication.
        """
        self._check_context(g)
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        g_terms = list(g.items())
        g_exps, g_coeff = min(g_terms, key=lambda t: _canonical_sort_key(t[0]))
        rem = dict(self.items())
        heap = [(_canonical_sort_key(e), e) for e in rem]
        heapq.heapify(heap)
        quot: dict[Exponents, int] = {}
        while heap:
            _, r_exps = heapq.heappop(heap)
            r_coeff = rem.get(r_exps)
            if not r_coeff:
                continue
            diff = tuple(a - b for a, b in zip(r_exps, g_exps))
            if any(e < 0 for e in diff):
                raise ExactDivisionError("non-exact division (monomial mismatch)")
            c, leftover = divmod(r_coeff, g_coeff)
            if leftover:
                raise ExactDivisionError("non-exact division (coefficient mismatch)")
            quot[diff] = c
            for exps, coeff in g_terms:
                e = tuple(a + b for a, b in zip(diff, exps))
                old = rem.get(e, 0)
                v = old - c * coeff
                if v:
                    rem[e] = v
                    if not old:
                        heapq.heappush(heap, (_canonical_sort_key(e), e))
                elif e in rem:
                    del rem[e]
        if rem:
            raise ExactDivisionError("non-exact division (remainder left)")
        q = Polynomial(self.m, self.n, quot)
        if q * g != self:
            raise ExactDivisionError("exact division re-multiplication failed")
        return q

    # -- substitution ----------------------------------------------------------

    def evaluate(self, a: int, b: int, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Value at integer A=a, B=b, x=xs, y=ys (xs, ys in index order)."""
        point = (a, b, *xs, *ys)
        if len(point) != 2 + self.m + self.n:
            raise ValueError("evaluation point has wrong length")
        value = 0
        for exps, coeff in self.items():
            v = coeff
            for val, e in zip(point, exps):
                if e:
                    v *= val**e
            value += v
        return value

    def at_zero(self, *vs: Var) -> "Polynomial":
        """The polynomial with the variables ``vs`` set to 0: its terms free
        of them, kept by one mask over the keys."""
        m, n, packer, keys = self.m, self.n, self.packer, self.keys
        free = np.ones(len(keys), dtype=bool)
        for v in vs:
            free &= packer.field(keys, var_slot(v, m, n)) == 0
        return Polynomial.from_packed(m, n, packer, keys[free], self.coeffs[free])

    def substitute(self, assignments: Mapping[Var, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (same context); others stay.

        Terms are grouped by their exponents in the replaced variables; each
        group's remaining part is multiplied by the matching powers.
        """
        slots = {}
        for v, p in assignments.items():
            self._check_context(p)
            slots[var_slot(v, self.m, self.n)] = p
        packer, keys = self.packer, self.keys
        replaced = np.zeros(len(keys), dtype=keys.dtype)
        for s in slots:
            replaced += packer.field(keys, s) << packer.shifts[s]
        rest = keys - replaced
        powers: dict[tuple[int, int], Polynomial] = {}
        pieces = []
        # sorted(set(...)), not np.unique, which imports numpy.ma
        for u in sorted(set(replaced.tolist())):
            group = replaced == u
            piece = [Polynomial.from_packed(self.m, self.n, packer, rest[group], self.coeffs[group])]
            for s, p in slots.items():
                e = (u >> packer.shifts[s]) & packer.masks[s]
                if (s, e) not in powers:
                    powers[s, e] = p**e
                piece.append(powers[s, e])
            pieces.append(product(self.m, self.n, piece))
        return total(self.m, self.n, pieces)

    # -- text format ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {self.n}, {self.format()!r})"

    def format(self) -> str:
        """Canonical text rendering; parse(format(f)) == f."""
        return "".join(self.format_chunks())

    def format_chunks(self) -> Iterator[str]:
        """The canonical text in pieces, ``_FORMAT_CHUNK`` terms at a time.

        A chunk is one uint8 matrix with a row per term, NUL-padded: the
        sign and |c|, then the "*name^e" blocks of the monomial.  Where |c|
        is 1 the monomial's first "*" goes, and the "1" too unless the
        monomial is empty.  The non-NUL bytes, row by row, are the text.
        """
        if not self:
            yield "0"
            return
        blocks = _monomial_blocks(self.packer, self.m, self.n, len(self))
        for chunk, idx in enumerate(self._canonical_chunks()):
            keys, coeffs = self.keys[idx], self.coeffs[idx]
            mags = np.abs(coeffs)
            digits = _digit_bytes(mags)
            # a leading NUL column, so argmax finds an empty monomial's start
            mono = np.hstack([np.zeros((len(idx), 1), np.uint8)]
                             + [render((keys >> low) & mask) for low, mask, render in blocks])
            first = (mono != 0).argmax(axis=1)
            unit = np.flatnonzero(mags == 1)
            mono[unit, first[unit]] = 0
            digits[unit[first[unit] > 0]] = 0
            mat = np.hstack([_SIGNS[(coeffs < 0).astype(np.intp)], digits, mono])
            if chunk == 0:  # the first term drops its spaces and a "+"
                sign = mat[0, :3]
                sign[sign != ord("-")] = 0
            yield mat.tobytes().translate(None, b"\0").decode("ascii")


def _rechunk(parts: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The concatenation of ``parts`` in pieces of ``size``, the last shorter."""
    pending: list[np.ndarray] = []
    held = 0
    for part in parts:
        pending.append(part)
        held += len(part)
        while held >= size:
            joined = np.concatenate(pending)
            yield joined[:size]
            pending, held = [joined[size:]], held - size
    if held:
        yield np.concatenate(pending)


def _encode(m: int, n: int, rows: list[Exponents], coeffs: list[int]):
    """Canonical (layout, keys, coefficients) of terms that may repeat or cancel."""
    width = 2 + m + n
    for exps in rows:
        if len(exps) != width:
            raise ValueError(f"exponent tuple of length {len(exps)}, expected {width}")
    packer = _packed.Packer.fitting(map(max, zip(*rows)) if rows else [0] * width)
    values = np.array(coeffs, dtype=_packed.coeff_dtype(sum(map(abs, coeffs))))
    keys, values = _packed.merge(packer.encode(rows), values)
    tight = packer.tight(keys)
    return tight, packer.rekey(keys, tight), values


def _in_context(m: int, n: int, polys: Iterable[Polynomial]) -> list[Polynomial]:
    ps = list(polys)
    for p in ps:
        if (p.m, p.n) != (m, n):
            raise ContextMismatchError(f"context ({p.m}, {p.n}) vs ({m}, {n})")
    return ps


def total(m: int, n: int, terms: Iterable[Polynomial]) -> Polynomial:
    """Exact sum of polynomials in context (m, n), merged once in the
    narrowest layout that holds every summand."""
    ps = [p for p in _in_context(m, n, terms) if p]
    if len(ps) < 2:
        return ps[0] if ps else Polynomial.zero(m, n)
    packer = _packed.layout(tuple(map(max, *(p.packer.widths for p in ps))))
    dtype = _packed.coeff_dtype(sum(p.l1_norm() for p in ps))
    pieces = [(p.packer.rekey(p.keys, packer), p.coeffs, None) for p in ps]
    return Polynomial.from_packed(m, n, packer, *_packed.merge_products(pieces, dtype))


def product(m: int, n: int, factors: Iterable[Polynomial]) -> Polynomial:
    """Exact product of polynomials in context (m, n).

    Every factor is re-keyed once into one layout that holds the product
    (slot k as wide as the sum of the factors' largest slot-k values), and
    the coefficients take the dtype the product of the factors' L1 norms
    certifies (``_packed.coeff_dtype``).
    """
    fs = _in_context(m, n, factors) or [Polynomial.const(1, m, n)]
    if not all(fs):
        return Polynomial.zero(m, n)
    # longest first: a merge has the shorter factor's terms as its runs, and
    # a one-term factor only shifts the keys
    fs.sort(key=len, reverse=True)
    widths = [sum((1 << f.packer.widths[k]) - 1 for f in fs).bit_length() for k in range(2 + m + n)]
    packer = _packed.layout(tuple(widths))
    dtype = _packed.coeff_dtype(math.prod(f.l1_norm() for f in fs))
    keys, coeffs = fs[0].packer.rekey(fs[0].keys, packer), fs[0].coeffs.astype(dtype, copy=False)
    for f in fs[1:]:
        factor = f.packer.rekey(f.keys, packer), f.coeffs.astype(dtype, copy=False)
        keys, coeffs = _packed.merge_products([(keys, coeffs, factor)], dtype)
    return Polynomial.from_packed(m, n, packer, keys, coeffs)


def alphabet(
    m: int, n: int
) -> tuple[Polynomial, Polynomial, list[Polynomial], list[Polynomial]]:
    """Generators (A, B, [x1..xm], [y1..yn]) for context (m, n)."""
    a = Polynomial.var(Var("A"), m, n)
    b = Polynomial.var(Var("B"), m, n)
    xs = [Polynomial.var(Var("x", i), m, n) for i in range(1, m + 1)]
    ys = [Polynomial.var(Var("y", j), m, n) for j in range(1, n + 1)]
    return a, b, xs, ys


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens: list[tuple[str, str | int, int]] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < length and text[i].isdigit():
                i += 1
            tokens.append(("int", int(text[start:i]), start))
            continue
        if ch in "ABxy":
            start = i
            i += 1
            if ch in "xy":
                digit_start = i
                while i < length and text[i].isdigit():
                    i += 1
                if i == digit_start:
                    raise ParseError(f"variable {ch!r} needs an index", start)
                tokens.append(("var", text[start:i], start))
            else:
                tokens.append(("var", ch, start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse(text: str, m: int, n: int) -> Polynomial:
    """Parse polynomial text (whitespace-insensitive) in context (m, n)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    width = 2 + m + n
    rows: list[Exponents] = []
    coeffs: list[int] = []
    pos = 0

    def parse_factor(idx: int) -> tuple[int, list[int], int]:
        kind, value, at = tokens[idx]
        if kind == "int":
            return value, [0] * width, idx + 1
        if kind == "var":
            name = str(value)
            v = Var(name[0]) if name[0] in "AB" else Var(name[0], int(name[1:]))
            try:
                s = var_slot(v, m, n)
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
            exps = [0] * width
            power = 1
            nxt = idx + 1
            if nxt < len(tokens) and tokens[nxt][:2] == ("op", "^"):
                if nxt + 1 >= len(tokens) or tokens[nxt + 1][0] != "int":
                    raise ParseError("expected integer exponent after '^'", tokens[nxt][2])
                power = int(tokens[nxt + 1][1])
                nxt += 2
            exps[s] = power
            return 1, exps, nxt
        raise ParseError("expected a coefficient or variable", at)

    while pos < len(tokens):
        sign = 1
        if tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -1
            pos += 1
            if pos >= len(tokens):
                raise ParseError("dangling sign", tokens[pos - 1][2])
        coeff, exps, pos = parse_factor(pos)
        while pos < len(tokens) and tokens[pos][:2] == ("op", "*"):
            if pos + 1 >= len(tokens):
                raise ParseError("dangling '*'", tokens[pos][2])
            c2, e2, pos = parse_factor(pos + 1)
            coeff *= c2
            exps = [a + b for a, b in zip(exps, e2)]
        if pos < len(tokens) and tokens[pos][:2] not in (("op", "+"), ("op", "-")):
            raise ParseError("expected '+', '-' or end of input", tokens[pos][2])
        rows.append(tuple(exps))
        coeffs.append(sign * coeff)
    return Polynomial._wrap(m, n, *_encode(m, n, rows, coeffs))
