import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refpoly
from gpd import _packed, poly
from gpd.poly import (
    ContextMismatchError,
    ExactDivisionError,
    ParseError,
    Polynomial,
    Var,
    _FORMAT_CHUNK,
    _canonical_sort_key,
    alphabet,
    parse,
    slot_var,
)

from conftest import random_point, random_poly


def test_binomial_square():
    a, b, _, _ = alphabet(1, 1)
    assert (a + b) * (a + b) == parse("A^2 + 2*A*B + B^2", 1, 1)


def test_additive_identity():
    f = parse("2*A*x1 - y1", 1, 1)
    assert f + Polynomial.zero(1, 1) == f


def test_mul_cross_checked_by_evaluation():
    # (A+x1-y1)(B-x1+y1) expanded by hand; the product is re-checked by
    # evaluating both sides at 5 seeded random integer points
    f = parse("A+x1-y1", 1, 1)
    g = parse("B-x1+y1", 1, 1)
    product = f * g
    expected = parse(
        "A*B - A*x1 + A*y1 + B*x1 - B*y1 - x1^2 + 2*x1*y1 - y1^2", 1, 1
    )
    assert product == expected
    rng = random.Random(20250808)
    for _ in range(5):
        a, b, xs, ys = random_point(rng, 1, 1)
        lhs = f.evaluate(a, b, xs, ys) * g.evaluate(a, b, xs, ys)
        assert lhs == expected.evaluate(a, b, xs, ys)


def test_context_mismatch_errors():
    with pytest.raises(ContextMismatchError):
        parse("A", 1, 1) + parse("A", 2, 2)
    with pytest.raises(ContextMismatchError):
        parse("A", 1, 2) * parse("A", 1, 3)


def test_swap_x_examples():
    assert parse("x1", 2, 1).swap_x(1) == parse("x2", 2, 1)
    f = parse("x1 + x2", 2, 1)
    assert f.swap_x(1) == f
    assert parse("A + x2 - y1", 2, 1).swap_x(1) == parse("A + x1 - y1", 2, 1)
    with pytest.raises(ValueError):
        parse("x1", 2, 1).swap_x(2)


def test_swap_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        f = random_poly(rng, 3, 2)
        assert f.swap_x(1).swap_x(1) == f
        assert f.swap_x(2).swap_x(2) == f


def test_divided_difference_examples():
    assert parse("x1", 2, 1).divided_difference(1) == parse("1", 2, 1)
    assert parse("x1*x2", 2, 1).divided_difference(1) == Polynomial.zero(2, 1)
    # (x1^2 - x2^2)/(x1 - x2) by hand
    assert parse("x1^2", 2, 1).divided_difference(1) == parse("x1 + x2", 2, 1)
    with pytest.raises(ValueError):
        parse("x1", 2, 1).divided_difference(0)


def test_divided_difference_square_is_zero():
    rng = random.Random(11)
    for _ in range(50):
        f = random_poly(rng, 3, 2)
        d = f.divided_difference(1)
        assert d.divided_difference(1) == Polynomial.zero(3, 2)


def test_divided_difference_kernel_is_symmetric_part():
    rng = random.Random(13)
    for _ in range(50):
        f = random_poly(rng, 2, 2)
        vanishes = f.divided_difference(1) == Polynomial.zero(2, 2)
        assert vanishes == (f.swap_x(1) == f)


def test_leading_form_examples():
    B = Var("B")
    assert parse("A + B", 1, 1).leading_form(B) == (1, parse("1", 1, 1))
    f = parse("B^2 - B*x1 + x1*y1", 1, 1)
    assert f.leading_form(B) == (2, parse("1", 1, 1))
    deg, coeff = parse("A*B^2 + x1*B^2 + A^3", 1, 1).leading_form(B)
    assert deg == 2 and coeff == parse("A + x1", 1, 1)
    with pytest.raises(ValueError):
        Polynomial.zero(1, 1).leading_form(B)


def test_divide_exact_examples():
    ab = parse("A + B", 1, 1)
    assert parse("A^2 + 2*A*B + B^2", 1, 1).divide_exact(ab) == ab
    assert Polynomial.zero(1, 1).divide_exact(ab) == Polynomial.zero(1, 1)
    with pytest.raises(ExactDivisionError):
        parse("A^2 + B", 1, 1).divide_exact(ab)
    with pytest.raises(ZeroDivisionError):
        ab.divide_exact(Polynomial.zero(1, 1))


def test_divide_exact_random_roundtrip():
    rng = random.Random(17)
    done = 0
    while done < 40:
        q = random_poly(rng, 2, 2)
        g = random_poly(rng, 2, 2)
        if g.is_zero():
            continue
        assert (q * g).divide_exact(g) == q
        done += 1


def test_format_and_parse_roundtrip():
    cases = [
        "A + B",
        "2*A*x1^2 - y3",
        "-A + 3*B - x1*y2 + 7",
        "x1^4 - 2*x1^2*y3^2 + y3^4",
        "0",
    ]
    for text in cases:
        f = parse(text, 2, 3)
        assert parse(f.format(), 2, 3) == f
        assert f.format() == parse(f.format(), 2, 3).format()


def test_format_canonical_order():
    # degree descending, then A before B before x before y
    f = parse("y1 + x1 + B + A + x1*y1", 1, 1)
    assert f.format() == "x1*y1 + A + B + x1 + y1"


def _reference_format(f: Polynomial) -> str:
    """Term-by-term renderer over a Python sort: the oracle for format()."""
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for exps, coeff in sorted(f.items(), key=lambda kv: _canonical_sort_key(kv[0])):
        names = [slot_var(s, f.m, f.n).name() for s in range(len(exps))]
        factors = [names[s] if e == 1 else f"{names[s]}^{e}" for s, e in enumerate(exps) if e]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def _spread_poly(rng: random.Random, m: int, n: int) -> Polynomial:
    # exponents around 10, so numeric and string order disagree, and
    # coefficients of every size up to past 2**64
    width = 2 + m + n
    terms = {}
    for _ in range(rng.randint(1, 30)):
        exps = tuple(rng.choice((0, 0, 0, 1, 2, 9, 10, 11)) for _ in range(width))
        terms[exps] = rng.choice(
            (1, -1, rng.randint(-99, 99), rng.randint(-(2**70), 2**70))
        )
    return Polynomial(m, n, terms)


@pytest.mark.parametrize("m, n", [(0, 0), (1, 1), (2, 3), (3, 4), (1, 11)])
def test_sorted_terms_and_format_match_reference(m, n):
    width = 2 + m + n
    polys = [
        Polynomial.zero(m, n),
        Polynomial.const(-(2**65) - 3, m, n),
        Polynomial.const(1, m, n),
        # leading term x^10 (or A^10) ahead of the same-degree x^9 * y
        Polynomial(m, n, {(10,) + (0,) * (width - 1): -5,
                          (9,) + (0,) * (width - 2) + (1,): 2**64 + 1,
                          (0,) * width: -1}),
        # exponents past int64, and int64 exponents whose degrees are not
        Polynomial(m, n, {(2**70,) + (0,) * (width - 1): 1, (0,) * width: 2}),
        Polynomial(m, n, {(2**62,) + (0,) * (width - 2) + (2**62,): -1,
                          (2**62 - 1,) * 2 + (0,) * (width - 2): 3,
                          (1,) + (0,) * (width - 1): 1}),
        # one exponent past a byte, tied in degree with exponents within one
        Polynomial(m, n, {(256,) + (0,) * (width - 1): 1,
                          (255,) + (0,) * (width - 2) + (1,): -2,
                          (0,) * width: 7}),
    ]
    rng = random.Random(1000 * m + n)
    polys += [_spread_poly(rng, m, n) for _ in range(60)]
    for f in polys:
        assert f.sorted_terms() == sorted(f.items(), key=lambda kv: _canonical_sort_key(kv[0]))
        text = f.format()
        assert text == _reference_format(f)
        assert parse(text, m, n) == f
    assert polys[3].format().startswith("-5*A^10 + ")


def test_format_matches_reference_across_chunks():
    rng = random.Random(7)
    terms = {
        tuple(rng.randrange(4) for _ in range(14)): rng.choice((1, -1, rng.randint(2, 99)))
        for _ in range(3 * _FORMAT_CHUNK)
    }
    terms[(0,) * 14] = -3
    f = Polynomial(1, 11, terms)
    assert len(f) > 2 * _FORMAT_CHUNK
    text = f.format()
    # compared term by term: a failing diff of two long strings is very slow
    assert text.split(" ") == _reference_format(f).split(" ")
    assert parse(text, 1, 11) == f


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3) | st.sampled_from([300, 2**64])] * 4),
        st.integers(-9, 9).filter(bool),
        max_size=40,
    ),
    st.integers(1, 6),
)
def test_canonical_chunks_match_the_argsort_order(terms, chunk):
    # terms of many degrees, whose sums need uint8, uint16 or Python ints
    f = Polynomial(1, 1, terms)
    with mock.patch.object(poly, "_FORMAT_CHUNK", chunk):
        chunks = list(f._canonical_chunks())
    assert all(len(c) == chunk for c in chunks[:-1]) and all(0 < len(c) <= chunk for c in chunks)
    order = np.concatenate([np.empty(0, np.intp), *chunks])
    assert np.array_equal(order, refpoly.canonical_order(f))


def test_product_multiplies_the_longest_factor_first(monkeypatch):
    # each merge's runs are the shorter factor's terms, and a one-term
    # factor only shifts the keys
    a, b, (x1,), (y1,) = alphabet(1, 1)
    f = (a + x1 - y1) ** 3
    expected = refpoly.mul(refpoly.mul(refpoly.terms(x1), refpoly.terms(f)), refpoly.terms(a + b))
    seen = []
    merge_products = _packed.merge_products

    def spy(pieces, dtype):
        seen.append((len(pieces[0][0]), len(pieces[0][2][0])))
        return merge_products(pieces, dtype)

    ab = a + b
    monkeypatch.setattr(_packed, "merge_products", spy)
    assert refpoly.terms(poly.product(1, 1, [x1, f, ab])) == expected
    assert seen == [(len(f), 2), (2 * len(f), 1)]


def _check_format(f: Polynomial) -> str:
    text = f.format()
    assert text.split(" ") == _reference_format(f).split(" ")
    assert parse(text, f.m, f.n) == f
    return text


def test_format_extreme_coefficients():
    top = 2**62 - 1
    x1 = (0, 0, 1, 0, 0, 0, 0)
    for c in (top, -top):  # the widest int64 coefficients
        f = Polynomial(2, 3, {x1: c})
        assert f.coeffs.dtype == np.int64
        assert _check_format(f) == f"{c}*x1"
    f = Polynomial(2, 3, {x1: top, (0,) * 7: -top, (1, 0, 0, 0, 0, 0, 2): 2**80,
                          (0, 1, 0, 0, 0, 0, 0): -(2**80) - 1, (0, 0, 0, 1, 0, 0, 0): -1})
    assert f.coeffs.dtype == object
    assert _check_format(f) == (f"{2**80}*A*y3^2 - {2**80 + 1}*B + {top}*x1 - x2 - {top}")


def test_format_exponent_wider_than_eight_bytes():
    # "*y11^4096" takes 9 bytes, "*A^1000000" 10
    y11 = (0,) * 13 + (4096,)
    f = Polynomial(1, 11, {y11: 1, (1,) + (0,) * 12 + (4096,): -1, (0,) * 13 + (1,): -7,
                           (10**6,) + (0,) * 13: 3, (0,) * 14: 1})
    assert _check_format(f) == "3*A^1000000 - A*y11^4096 + y11^4096 - 7*y11 + 1"
    # keys past int64, with narrow slots beside the wide one
    f = Polynomial(1, 2, {(2**70, 0, 1, 0, 0): -1, (0, 3, 1, 2, 0): 5, (0, 0, 0, 0, 1): 1})
    assert f.keys.dtype == object
    assert _check_format(f) == "-A^1180591620717411303424*x1 + 5*B^3*x1*y1^2 + y2"


def test_format_joint_value_table_with_keys_past_int64():
    # B, x1, y1 span 6 bits: with 65 terms they render from a table of all
    # 64 joint values, read from keys past int64
    terms = {(0, b, i, j): (-1) ** (b + i + j) * (b + 2 * i + 3 * j + 1)
             for b in range(4) for i in range(4) for j in range(4)}
    terms[(2**70, 0, 0, 0)] = 2**70
    f = Polynomial(1, 1, terms)
    assert f.keys.dtype == object and f.coeffs.dtype == object
    assert _check_format(f).startswith(f"{2**70}*A^{2**70} - 19*B^3*x1^3*y1^3 + ")


@pytest.mark.parametrize("text", ["1", "-1", "-3", "x1 + 1", "-x1 - 1", "-A*B + x1 - 2", "-y2 + 1"])
def test_format_unit_coefficients_and_constants(text):
    assert _check_format(parse(text, 1, 2)) == text


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize(
    "size", [1, _FORMAT_CHUNK, _FORMAT_CHUNK + 1], ids=["1", "chunk", "chunk+1"]
)
def test_format_chunk_boundaries(size, big):
    # the first term and the first term of the second chunk are negative,
    # and the constant term is -1
    rng = random.Random(size)
    choices = (1, -1, 2, -37) + ((2**70,) if big else ())
    terms = {(d, 0, d % 3, 0): rng.choice(choices) for d in range(1, size)}
    terms[(0, 0, 0, 0)] = -1
    first = Polynomial(1, 1, terms).sorted_terms()
    for i in (0, _FORMAT_CHUNK):
        if i < size:
            terms[first[i][0]] = -abs(first[i][1])
    f = Polynomial(1, 1, terms)
    assert len(f) == size and (f.coeffs.dtype == object) == (big and size > 1)
    chunks = list(f.format_chunks())
    assert len(chunks) == -(-size // _FORMAT_CHUNK)
    assert chunks[0].startswith("-")
    assert all(chunk.startswith(" - ") for chunk in chunks[1:])
    assert "".join(chunks) == _check_format(f)


def test_parse_is_whitespace_insensitive():
    assert parse(" 2 * A * x1 ^ 2 -  y3 ", 1, 3) == parse("2*A*x1^2-y3", 1, 3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("A + ?", 1, 1)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse("x9", 2, 2)
    with pytest.raises(ParseError):
        parse("A 1", 1, 1)
    with pytest.raises(ParseError):
        parse("", 1, 1)
    with pytest.raises(ParseError):
        parse("A + ", 1, 1)


def test_canonical_form_is_order_independent():
    rng = random.Random(19)
    for _ in range(20):
        f = random_poly(rng, 2, 2, max_terms=8)
        g = random_poly(rng, 2, 2, max_terms=8)
        h = random_poly(rng, 2, 2, max_terms=8)
        assert (f + g) + h == (h + g) + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_evaluation_homomorphism():
    rng = random.Random(23)
    for _ in range(100):
        f = random_poly(rng, 2, 2)
        g = random_poly(rng, 2, 2)
        a, b, xs, ys = random_point(rng, 2, 2)
        assert (f + g).evaluate(a, b, xs, ys) == f.evaluate(a, b, xs, ys) + g.evaluate(a, b, xs, ys)
        assert (f * g).evaluate(a, b, xs, ys) == f.evaluate(a, b, xs, ys) * g.evaluate(a, b, xs, ys)


def test_signed_relabel_and_substitute():
    f = parse("A + x1 - y2", 2, 2)
    swapped = f.signed_relabel(
        {
            Var("A"): (1, Var("B")),
            Var("B"): (1, Var("A")),
            Var("x", 1): (-1, Var("x", 2)),
            Var("x", 2): (-1, Var("x", 1)),
            Var("y", 1): (-1, Var("y", 2)),
            Var("y", 2): (-1, Var("y", 1)),
        }
    )
    assert swapped == parse("B - x2 + y1", 2, 2)
    a, _, xs, _ = alphabet(2, 2)
    shifted = f.substitute({Var("x", 1): a + xs[0]})
    assert shifted == parse("2*A + x1 - y2", 2, 2)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 4), (2, 30)])
def test_at_zero_matches_substitute(m, n):
    # (2,30) polynomials carry a degree-2 term in every variable, so their
    # keys are Python ints
    rng = random.Random(f"at_zero {m} {n}")
    variables = [slot_var(s, m, n) for s in range(2 + m + n)]
    zero = Polynomial.zero(m, n)
    for _ in range(40):
        f = random_poly(rng, m, n, max_terms=8, max_deg=5)
        if n == 30:
            f = f + Polynomial(m, n, {(2,) * (2 + m + n): 1})
            assert f.keys.dtype == object
        vs = rng.sample(variables, rng.randint(0, min(3, len(variables))))
        assert f.at_zero(*vs) == f.substitute({v: zero for v in vs}), vs
    assert parse("A*B + x1 - 3", m, n).at_zero(Var("A"), Var("x", 1)) == parse("-3", m, n)


def test_in_context_promote_and_restrict():
    f = parse("A + x1 - y2", 1, 2)
    wide = f.in_context(3, 4)
    assert wide == parse("A + x1 - y2", 3, 4)
    assert wide.in_context(1, 2) == f
    with pytest.raises(ContextMismatchError):
        parse("x2", 2, 2).in_context(1, 2)


def test_arbitrary_precision_coefficients():
    big = parse("A + B", 1, 1) ** 64
    deg, coeff = big.leading_form(Var("A"))
    assert deg == 64 and coeff == parse("1", 1, 1)
    mid = dict(big.items())[tuple([32, 32, 0, 0])]
    assert mid == 1832624140942590534  # C(64, 32), larger than 2^60


def test_pickle_round_trip_shares_the_layout():
    # polynomials cross the --jobs process pool by pickle; the last value
    # holds Python-int coefficients
    values = [parse(t, 2, 3) for t in ("0", "7", "3*A^2*x1 - B + 7*y3")]
    for f in [*values, parse("A + B", 2, 3) ** 64]:
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.coeffs.dtype == f.coeffs.dtype
        assert not g.keys.flags.writeable and not g.coeffs.flags.writeable
        assert g.packer is _packed.layout(f.packer.widths)
