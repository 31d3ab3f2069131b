"""The merge kernel against the tuple-dict reference arithmetic.

``_packed.merge_products`` sums one product per piece (a merged packed
polynomial times a factor, or times 1) and merges them once;
``_packed.merge`` merges one (keys, coefficients) buffer.  Both are
compared with ``refpoly`` over pieces that share keys, cancel, or are
empty, factors of one to three terms, int64 and Python-int coefficients,
and keys of 12 and of 69 bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import refpoly
from gpd import _packed

# Exponents stay below 4 in pieces and factors, so their sums fit 3 bits.
NARROW = _packed.layout((3, 3, 3, 3))
WIDE = _packed.layout((3, 60, 3, 3))  # slot 0 starts at bit 66: Python-int keys
EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4)
SMALL = st.integers(-50, 50).filter(bool)
BIG = st.integers(-(2**80), 2**80).filter(bool)


def packed(packer, terms, dtype):
    """(keys, coefficients) of a term dict, merged: keys ascending."""
    keys = packer.encode(list(terms))
    order = np.argsort(keys, kind="stable")
    return keys[order], np.array(list(terms.values()), dtype=dtype)[order]


def decode(packer, keys, coeffs):
    return dict(zip(zip(*packer.fields(keys)), coeffs.tolist()))


def check_merged(packer, keys, coeffs, dtype, expected):
    assert keys.dtype == packer.key_dtype and coeffs.dtype == np.dtype(dtype)
    assert (keys[1:] > keys[:-1]).all() and (coeffs != 0).all()
    assert decode(packer, keys, coeffs) == expected


@st.composite
def products(draw):
    """(layout, coefficient dtype, pieces as term dicts with factors or None)."""
    packer = draw(st.sampled_from([NARROW, WIDE]))
    big = draw(st.booleans())
    coeff = BIG if big else SMALL
    terms = st.dictionaries(EXPONENTS, coeff, max_size=6)
    factor = st.none() | st.dictionaries(EXPONENTS, coeff, min_size=1, max_size=3)
    pieces = draw(st.lists(st.tuples(terms, factor), min_size=1, max_size=5))
    if draw(st.booleans()):  # every piece with its negation: the sum is 0
        pieces += [({e: -c for e, c in t.items()}, f) for t, f in pieces]
    dtype = object if big or draw(st.booleans()) else np.int64
    return packer, dtype, pieces


@settings(max_examples=300, deadline=None)
@given(products(), st.data())
def test_merge_products_matches_reference(case, data):
    packer, dtype, pieces = case
    expected = {}
    arrays = []
    for terms, factor in pieces:
        expected = refpoly.add(expected, refpoly.mul(terms, factor or {(0,) * 4: 1}))
        # int64 operands may meet Python-int coefficients
        kind = dtype if dtype is np.int64 else data.draw(st.sampled_from([np.int64, object]))
        if any(abs(c) >= 2**62 for c in [*terms.values(), *(factor or {}).values()]):
            kind = object
        pair = None if factor is None else packed(packer, factor, kind)
        arrays.append((*packed(packer, terms, kind), pair))
    keys, coeffs = _packed.merge_products(arrays, dtype)
    check_merged(packer, keys, coeffs, dtype, expected)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([NARROW, WIDE]),
    st.lists(st.tuples(EXPONENTS, st.integers(-3, 3)), max_size=12),
)
def test_merge_matches_reference(packer, pairs):
    # unsorted keys, repeated keys and zero coefficients in one buffer
    keys = packer.encode([e for e, _ in pairs])
    coeffs = np.array([c for _, c in pairs], dtype=np.int64)
    check_merged(packer, *_packed.merge(keys, coeffs), np.int64, refpoly._collect(pairs))
