"""Exact sparse polynomial arithmetic over the integers.

Everything downstream (tile weights, pipe dream polynomials, vertex-model
checks, component classes) lives in the ring Z[A, B, x1..xm, y1..yn] for a
fixed grid size (m, n).  A :class:`Polynomial` carries that context with it;
mixing contexts is an error, never an implicit promotion.

Terms are stored as a dict mapping exponent tuples to nonzero integer
coefficients.  The exponent tuple has one slot per variable in the order
A, B, x1..xm, y1..yn, so two polynomials are equal exactly when their dicts
are equal and every value has a single canonical form.  Coefficients are
Python ints, hence arbitrary precision.

Canonical term order (used by :meth:`Polynomial.sorted_terms` and the text
format): total degree descending, ties broken by the exponent vector,
lexicographically descending in the variable order above.  ``sorted_terms``
computes it with one ``np.lexsort`` over the exponent matrix, total degree
as the primary key and the slots A, B, x1.., y1.. after it, then reverses
the ascending result; exponent vectors are unique, so reversing reorders no
ties.  :func:`_canonical_sort_key` is the same order as a Python key and
drives the leading term of exact division.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

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


# Terms per joined chunk in Polynomial.format: only one chunk's piece strings
# are alive at a time, not one string per term of a large polynomial.
_FORMAT_CHUNK = 4096


class _Powers(dict):
    """Text of one variable to each power: "" for 0, the name for 1, name^e.

    Entries past 1 are made on first use, so any exponent renders.
    """

    def __init__(self, name: str):
        super().__init__({0: "", 1: name})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.name}^{e}"
        return text


class Polynomial:
    """Immutable exact polynomial in Z[A, B, x1..xm, y1..yn]."""

    __slots__ = ("m", "n", "_terms")

    def __init__(self, m: int, n: int, terms: Mapping[Exponents, int] | None = None):
        if m < 0 or n < 0:
            raise ValueError("context sizes must be nonnegative")
        self.m = m
        self.n = n
        width = 2 + m + n
        clean: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponent tuple of length {len(exps)}, expected {width}"
                    )
                if coeff:
                    clean[exps] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, m: int, n: int, terms: dict[Exponents, int]) -> "Polynomial":
        """Wrap a pre-cleaned term dict without copying (internal)."""
        p = object.__new__(cls)
        p.m = m
        p.n = n
        p._terms = terms
        return p

    @classmethod
    def zero(cls, m: int, n: int) -> "Polynomial":
        return cls._raw(m, n, {})

    @classmethod
    def const(cls, value: int, m: int, n: int) -> "Polynomial":
        if value == 0:
            return cls.zero(m, n)
        return cls._raw(m, n, {(0,) * (2 + m + n): int(value)})

    @classmethod
    def var(cls, v: Var, m: int, n: int) -> "Polynomial":
        exps = [0] * (2 + m + n)
        exps[var_slot(v, m, n)] = 1
        return cls._raw(m, n, {tuple(exps): 1})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms in canonical order (degree descending, then lex descending)."""
        terms = self._terms
        return [(exps, terms[exps]) for exps in self._sorted_exponents()]

    def _sorted_exponents(self) -> list[Exponents]:
        """Exponent vectors in canonical order, without building term pairs.

        The exponent matrix takes the narrowest column type that holds every
        exponent (uint8 for all the CLI's shapes), so sorting a large
        polynomial allocates little next to the terms themselves.
        """
        keys = list(self._terms)
        if len(keys) < 2:
            return keys
        top = max(map(max, keys))
        if top < 256:
            dtype = np.uint8
        elif top <= np.iinfo(np.int64).max // len(keys[0]):
            dtype = np.int64
        else:
            dtype = object  # Python ints, so the degree sums cannot wrap
        exps = np.array(keys, dtype=dtype)
        order = np.lexsort((*exps.T[::-1], exps.sum(axis=1)))
        boxed = np.fromiter(keys, dtype=object, count=len(keys))
        return boxed[order[::-1]].tolist()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self._terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def degree_in(self, v: Var) -> int:
        """Maximal exponent of ``v``; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        s = var_slot(v, self.m, self.n)
        return max(e[s] for e in self._terms)

    def l1_norm(self) -> int:
        return sum(abs(c) for c in self._terms.values())

    def constant_term(self) -> int:
        return self._terms.get((0,) * (2 + self.m + self.n), 0)

    # -- ring operations ----------------------------------------------------

    def _check_context(self, other: "Polynomial") -> None:
        if self.m != other.m or self.n != other.n:
            raise ContextMismatchError(
                f"context ({self.m}, {self.n}) vs ({other.m}, {other.n})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_context(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            elif exps in out:
                del out[exps]
        return Polynomial._raw(self.m, self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_context(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, 0) - coeff
            if c:
                out[exps] = c
            elif exps in out:
                del out[exps]
        return Polynomial._raw(self.m, self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.m, self.n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.m, self.n)
            return Polynomial._raw(
                self.m, self.n, {e: c * other for e, c in self._terms.items()}
            )
        self._check_context(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponents, int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(u + v for u, v in zip(e1, e2))
                c = get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return Polynomial._raw(self.m, self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.const(1, self.m, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- symmetric group action and divided differences ----------------------

    def swap_x(self, i: int) -> "Polynomial":
        """Exchange x_i and x_{i+1} in every term (requires 1 <= i <= m-1)."""
        if not 1 <= i <= self.m - 1:
            raise ValueError(f"swap index {i} outside [1..{self.m - 1}]")
        a = var_slot(Var("x", i), self.m, self.n)
        b = a + 1
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            if exps[a] != exps[b]:
                le = list(exps)
                le[a], le[b] = le[b], le[a]
                exps = tuple(le)
            out[exps] = out.get(exps, 0) + coeff
        return Polynomial._raw(self.m, self.n, {e: c for e, c in out.items() if c})

    def _divmod_binomial(
        self, va: Var, vb: Var, cb: int
    ) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of division by (va + cb * vb), cb = +-1.

        Synthetic division viewing the polynomial as univariate in va over
        the remaining variables; the remainder is the substitution
        va -> -cb * vb.
        """
        a = var_slot(va, self.m, self.n)
        b = var_slot(vb, self.m, self.n)
        by_deg: dict[int, dict[Exponents, int]] = {}
        for exps, coeff in self._terms.items():
            k = exps[a]
            le = list(exps)
            le[a] = 0
            by_deg.setdefault(k, {})[tuple(le)] = coeff
        if not by_deg:
            return Polynomial.zero(self.m, self.n), Polynomial.zero(self.m, self.n)
        d = max(by_deg)
        # q_{k-1} = c_k + (-cb * vb) q_k, descending from q_{d-1} = c_d
        quot: dict[Exponents, int] = {}
        carry: dict[Exponents, int] = {}
        for k in range(d, 0, -1):
            level = dict(carry)
            for exps, coeff in by_deg.get(k, {}).items():
                c = level.get(exps, 0) + coeff
                if c:
                    level[exps] = c
                elif exps in level:
                    del level[exps]
            for exps, coeff in level.items():
                le = list(exps)
                le[a] = k - 1
                quot[tuple(le)] = coeff
            carry = {}
            for exps, coeff in level.items():
                le = list(exps)
                le[b] += 1
                carry[tuple(le)] = -cb * coeff
        rem = dict(carry)
        for exps, coeff in by_deg.get(0, {}).items():
            c = rem.get(exps, 0) + coeff
            if c:
                rem[exps] = c
            elif exps in rem:
                del rem[exps]
        return (
            Polynomial._raw(self.m, self.n, quot),
            Polynomial._raw(self.m, self.n, rem),
        )

    def _divmod_x_diff(self, i: int) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of division by (x_i - x_{i+1})."""
        return self._divmod_binomial(Var("x", i), Var("x", i + 1), -1)

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
        if not self._terms:
            raise ValueError("leading form of the zero polynomial")
        s = var_slot(v, self.m, self.n)
        d = max(e[s] for e in self._terms)
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            if exps[s] == d:
                le = list(exps)
                le[s] = 0
                out[tuple(le)] = coeff
        return d, Polynomial._raw(self.m, self.n, out)

    def _leading_term(self) -> tuple[Exponents, int]:
        exps = min(self._terms, key=_canonical_sort_key)
        return exps, self._terms[exps]

    def divide_exact(self, g: "Polynomial") -> "Polynomial":
        """Return q with self = q * g, or raise ExactDivisionError.

        Long division against the single divisor g in the canonical term
        order (leading terms tracked through a lazy-deletion heap); the
        result is verified by re-multiplication.
        """
        self._check_context(g)
        if not g._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        g_exps, g_coeff = g._leading_term()
        rem = dict(self._terms)
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
            for exps, coeff in g._terms.items():
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
        q = Polynomial._raw(self.m, self.n, quot)
        if q * g != self:
            raise ExactDivisionError("exact division re-multiplication failed")
        return q

    # -- substitution ----------------------------------------------------------

    def evaluate(self, a: int, b: int, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Value at integer A=a, B=b, x=xs, y=ys (xs, ys in index order)."""
        point = (a, b, *xs, *ys)
        if len(point) != 2 + self.m + self.n:
            raise ValueError("evaluation point has wrong length")
        total = 0
        for exps, coeff in self._terms.items():
            v = coeff
            for val, e in zip(point, exps):
                if e:
                    v *= val**e
            total += v
        return total

    def signed_relabel(self, mapping: Mapping[Var, tuple[int, Var]]) -> "Polynomial":
        """Apply a signed variable permutation, e.g. x_i -> -x_{m+1-i}.

        ``mapping`` sends a Var to (sign, Var); unmapped variables stay put.
        The mapping must be injective on slots.
        """
        width = 2 + self.m + self.n
        perm = list(range(width))
        signs = [1] * width
        for src, (sign, dst) in mapping.items():
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            perm[var_slot(src, self.m, self.n)] = var_slot(dst, self.m, self.n)
            signs[var_slot(src, self.m, self.n)] = sign
        if len(set(perm)) != width:
            raise ValueError("relabeling is not injective")
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            le = [0] * width
            for s, e in enumerate(exps):
                if e:
                    le[perm[s]] = e
                    if signs[s] < 0 and e % 2:
                        coeff = -coeff
            e2 = tuple(le)
            c = out.get(e2, 0) + coeff
            if c:
                out[e2] = c
            elif e2 in out:
                del out[e2]
        return Polynomial._raw(self.m, self.n, out)

    def substitute(self, assignments: Mapping[Var, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (same context); others stay."""
        slots = {}
        for v, p in assignments.items():
            self._check_context(p)
            slots[var_slot(v, self.m, self.n)] = p
        result = Polynomial.zero(self.m, self.n)
        for exps, coeff in self._terms.items():
            piece = Polynomial.const(coeff, self.m, self.n)
            rest = [0] * (2 + self.m + self.n)
            for s, e in enumerate(exps):
                if not e:
                    continue
                if s in slots:
                    piece = piece * slots[s] ** e
                else:
                    rest[s] = e
            if any(rest):
                piece = piece * Polynomial._raw(self.m, self.n, {tuple(rest): 1})
            result = result + piece
        return result

    def in_context(self, m: int, n: int) -> "Polynomial":
        """Recast into context (m, n), preserving variable indices.

        Shrinking is allowed only if no dropped variable actually occurs.
        """
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            le = [0] * (2 + m + n)
            for s, e in enumerate(exps):
                if not e:
                    continue
                v = slot_var(s, self.m, self.n)
                try:
                    le[var_slot(v, m, n)] = e
                except ValueError:
                    raise ContextMismatchError(
                        f"{v.name()} does not fit context ({m}, {n})"
                    ) from None
            out[tuple(le)] = coeff
        return Polynomial._raw(m, n, out)

    # -- text format ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {self.n}, {self.format()!r})"

    def format(self) -> str:
        """Canonical text rendering; parse(format(f)) == f."""
        if not self._terms:
            return "0"
        powers = [
            _Powers(slot_var(s, self.m, self.n).name()) for s in range(2 + self.m + self.n)
        ]
        terms = self._terms
        keys = self._sorted_exponents()
        chunks: list[str] = []
        for start in range(0, len(keys), _FORMAT_CHUNK):
            pieces: list[str] = []
            for exps in keys[start:start + _FORMAT_CHUNK]:
                coeff = terms[exps]
                mono = "*".join(filter(None, map(dict.__getitem__, powers, exps)))
                sign = " + " if coeff > 0 else " - "
                mag = abs(coeff)
                if mag != 1:
                    mono = f"{mag}*{mono}" if mono else str(mag)
                elif not mono:
                    mono = "1"
                pieces.append(sign + mono)
            chunks.append("".join(pieces))
        head = chunks[0]  # the first piece drops its spaces and a "+"
        chunks[0] = head[3:] if head[1] == "+" else "-" + head[3:]
        return "".join(chunks)


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
    terms: dict[Exponents, int] = {}
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
        key = tuple(exps)
        coeff = sign * coeff
        c = terms.get(key, 0) + coeff
        if c:
            terms[key] = c
        elif key in terms:
            del terms[key]
    return Polynomial._raw(m, n, terms)
