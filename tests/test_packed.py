"""The merge kernel against the tuple-dict reference arithmetic.

``_packed.merge_products`` sums one product per piece (a merged packed
polynomial times a factor, or times 1) and merges them once;
``_packed.merge`` merges one (keys, coefficients) buffer.  Both are
compared with ``refpoly`` over pieces that share keys, cancel, or are
empty, factors of one to three terms, int32, int64 and Python-int
coefficients, operands narrower or wider than the merge's dtype, and keys
of 12 bits (int32), 39 (int64) and 69 (Python ints).  Merges at the int32
tier's edge come out exact in the dtype their bound certifies.  With ``_MERGE_CHUNK`` cut to a few terms,
every merge of more input terms in at most ``_MERGE_RUNS`` runs goes by
key range (``_merge_ranges``), its range bounds falling on duplicated and
cancelling keys, whole ranges cancelling; a merge of more runs keeps one
buffer.  A ranged merge holds its output once, and the re-key moves runs
of slots as the slot-by-slot loop moves each slot.
"""

import random
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refpoly
from gpd import _packed

# Exponents stay below 4 in pieces and factors, so their sums fit 3 bits.
NARROW = _packed.layout((3, 3, 3, 3))  # 12 bits: int32 keys
MID = _packed.layout((3, 30, 3, 3))  # 39 bits: int64 keys
WIDE = _packed.layout((3, 60, 3, 3))  # slot 0 starts at bit 66: Python-int keys
LAYOUTS = st.sampled_from([NARROW, MID, WIDE])
FIXED = [np.int32, np.int64]
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
    assert (keys.dtype == np.int32) == (sum(packer.widths) <= 31)
    assert (keys[1:] > keys[:-1]).all() and (coeffs != 0).all()
    assert decode(packer, keys, coeffs) == expected


@st.composite
def products(draw):
    """(layout, coefficient dtype, pieces as term dicts with factors or None)."""
    packer = draw(LAYOUTS)
    big = draw(st.booleans())
    coeff = BIG if big else SMALL
    terms = st.dictionaries(EXPONENTS, coeff, max_size=6)
    factor = st.none() | st.dictionaries(EXPONENTS, coeff, min_size=1, max_size=3)
    pieces = draw(st.lists(st.tuples(terms, factor), min_size=1, max_size=5))
    if draw(st.booleans()):  # every piece with its negation: the sum is 0
        pieces += [({e: -c for e, c in t.items()}, f) for t, f in pieces]
    dtype = object if big or draw(st.booleans()) else draw(st.sampled_from(FIXED))
    return packer, dtype, pieces


@st.composite
def ranged_products(draw):
    """Like ``products``, with factors of up to eight terms and at least
    two input terms, so a ``_MERGE_CHUNK`` below their count applies.  The
    pieces are short, or long enough that a range samples every few keys."""
    packer = draw(LAYOUTS)
    big = draw(st.booleans())
    coeff = BIG if big else SMALL
    low, high = draw(st.sampled_from([(1, 8), (40, 80)]))
    terms = st.dictionaries(EXPONENTS, coeff, min_size=low, max_size=high)
    factor = st.none() | st.dictionaries(EXPONENTS, coeff, min_size=2, max_size=8)
    pieces = draw(st.lists(st.tuples(terms, factor), min_size=2, max_size=4))
    # some pieces (or all) twice, once negated: duplicates that cancel, in
    # ranges that merge to nothing and across range bounds
    twice = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    pieces += [({e: -c for e, c in t.items()}, f) for (t, f), neg in zip(pieces, twice) if neg]
    dtype = object if big or draw(st.booleans()) else draw(st.sampled_from(FIXED))
    return packer, dtype, pieces


@settings(max_examples=300, deadline=None)
@given(products(), st.data())
def test_merge_products_matches_reference(case, data):
    check_products(case, data)


@contextmanager
def merge_limits(chunk, runs):
    """``_MERGE_CHUNK`` and ``_MERGE_RUNS`` patched; yields the list that
    records each ``_merge_ranges`` call's number of pieces."""
    ranged = []
    merge_ranges = _packed._merge_ranges

    def spy(pieces, dtype):
        ranged.append(len(pieces))
        return merge_ranges(pieces, dtype)

    with mock.patch.object(_packed, "_MERGE_CHUNK", chunk), \
            mock.patch.object(_packed, "_MERGE_RUNS", runs), \
            mock.patch.object(_packed, "_merge_ranges", spy):
        yield ranged


def sizes(pieces):
    """(input terms, runs) of drawn pieces."""
    runs = [len(f or [None]) for _, f in pieces]
    return sum(len(t) * r for (t, _), r in zip(pieces, runs)), sum(runs)


@settings(max_examples=300, deadline=None)
@given(ranged_products(), st.data())
def test_ranged_merge_matches_reference(case, data):
    size, runs = sizes(case[2])
    with merge_limits(data.draw(st.integers(1, size - 1)), runs) as ranged:
        check_products(case, data)
    assert ranged == [len(case[2])]


@settings(max_examples=100, deadline=None)
@given(ranged_products(), st.data())
def test_merge_of_too_many_runs_keeps_one_buffer(case, data):
    size, runs = sizes(case[2])
    with merge_limits(data.draw(st.integers(1, size - 1)), runs - 1) as ranged:
        check_products(case, data)
    assert ranged == []


@pytest.mark.parametrize("extra", [0, 1])
def test_merge_products_takes_ranges_up_to_the_run_bound(extra):
    # the module's own bounds: a piece of 300 terms times a factor of
    # _MERGE_RUNS (+1) terms is more than _MERGE_CHUNK input terms
    packer = _packed.layout((8, 8, 8, 8))
    rng = random.Random(extra)

    def terms(count):
        out = {}
        while len(out) < count:
            out[tuple(rng.randrange(100) for _ in range(4))] = rng.choice((-2, -1, 1, 3))
        return out

    piece, factor = terms(300), terms(_packed._MERGE_RUNS + extra)
    assert len(piece) * len(factor) > _packed._MERGE_CHUNK
    with merge_limits(_packed._MERGE_CHUNK, _packed._MERGE_RUNS) as ranged:
        keys, coeffs = _packed.merge_products(
            [(*packed(packer, piece, np.int64), packed(packer, factor, np.int64))], np.int64)
    assert ranged == ([] if extra else [1])
    check_merged(packer, keys, coeffs, np.int64, refpoly.mul(piece, factor))


def test_ranged_merge_drops_ranges_that_cancel():
    # the lower half of the products cancels: its ranges merge to nothing
    # and the output, sized by distinct keys, is cut to the upper half
    packer = _packed.layout((8, 8, 8, 8))
    piece = {(a, b, 0, 0): 1 + a % 3 for a in range(100) for b in range(3)}
    low = {e: -c for e, c in piece.items() if e[0] < 50}
    factor = {(0, 0, 0, 0): 2, (0, 0, 1, 0): -1, (1, 0, 0, 0): 1}
    pieces = [(*packed(packer, t, np.int64), packed(packer, factor, np.int64)) for t in (piece, low)]
    with merge_limits(8, 6) as ranged:
        keys, coeffs = _packed.merge_products(pieces, np.int64)
    assert ranged == [2]
    expected = refpoly.add(refpoly.mul(piece, factor), refpoly.mul(low, factor))
    assert 0 < len(expected) < len(piece) * len(factor) // 2
    check_merged(packer, keys, coeffs, np.int64, expected)


def test_ranged_merge_holds_its_output_once():
    # 8 * _MERGE_CHUNK distinct products, merged by key range under the
    # module's own bounds: besides the inputs (made before tracing) the
    # merge holds its output and a few _MERGE_CHUNK-term buffers at a time,
    # not the merged ranges and their join
    chunk = _packed._MERGE_CHUNK
    keys = np.arange(2 * chunk, dtype=np.int64) * 4
    coeffs = np.arange(2 * chunk, dtype=np.int64) % 7 + 1
    factor = np.arange(4, dtype=np.int64), np.array([1, -2, 3, 5], dtype=np.int64)
    with merge_limits(chunk, _packed._MERGE_RUNS) as ranged:
        tracemalloc.start()
        try:
            out_keys, out_coeffs = _packed.merge_products([(keys, coeffs, factor)], np.int64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ranged == [1] and len(out_keys) == 8 * chunk
    assert np.array_equal(out_keys, (keys[None, :] + factor[0][:, None]).T.ravel())
    assert np.array_equal(out_coeffs, (coeffs[None, :] * factor[1][:, None]).T.ravel())
    output = out_keys.nbytes + out_coeffs.nbytes
    assert peak <= output + 6 * chunk * 8, (peak, output)


@pytest.mark.parametrize("sum_top, factors, dtype", [
    (2**31 - 2, (46340, 46341), np.int32),  # just under the int32 tier
    (2**31, (46341, 46341), np.int64),  # past it, and past int32
])
def test_merge_at_the_int32_tier_is_exact(sum_top, factors, dtype):
    # int32 operands whose sum, or product, is the merge's bound: a bound
    # below 2**31 - 1 certifies int32, one past it takes int64, and both
    # come out exact where int32 arithmetic would wrap
    e, f = (1, 0, 2, 0), (0, 1, 0, 1)
    half = sum_top // 2
    sum_pieces = [(*packed(NARROW, {e: c}, np.int32), None) for c in (half, sum_top - half)]
    a, b = factors
    product_pieces = [(*packed(NARROW, {e: a}, np.int32), packed(NARROW, {f: b}, np.int32))]
    for pieces, bound, expected in [
        (sum_pieces, sum_top, {e: sum_top}),
        (product_pieces, a * b, refpoly.mul({e: a}, {f: b})),
    ]:
        assert _packed.coeff_dtype(bound) is dtype
        check_merged(NARROW, *_packed.merge_products(pieces, dtype), dtype, expected)


def test_rekey_out_of_int32_keys():
    # a 31-bit layout (int32 keys) re-keyed into 32 and 39 bits: the top
    # slot moves past bit 31, so the moves run in int64, and back again
    src = _packed.layout((8, 8, 8, 7))
    rows = [(255, 1, 0, 127), (0, 255, 255, 0), (128, 0, 3, 64)]
    keys = src.encode(rows)
    assert keys.dtype == np.int32
    for dst in (_packed.layout((8, 8, 8, 8)), _packed.layout((8, 16, 8, 7))):
        moved = src.rekey(keys, dst)
        assert moved.dtype == np.int64
        assert moved.tolist() == dst.encode(rows).tolist()
        back = dst.rekey(moved, src)
        assert back.dtype == np.int32 and back.tolist() == keys.tolist()


def check_products(case, data):
    """``merge_products`` of the drawn pieces against the reference sum."""
    packer, dtype, pieces = case
    expected = {}
    arrays = []
    for terms, factor in pieces:
        expected = refpoly.add(expected, refpoly.mul(terms, factor or {(0,) * 4: 1}))
        # operands come in any dtype that holds them: int32 into an int64
        # merge, int64 into an int32 one whose bound certifies it, either
        # into Python ints
        top = max(map(abs, [*terms.values(), *(factor or {}).values()]), default=0)
        kinds = [k for k in FIXED if top <= np.iinfo(k).max]
        kind = data.draw(st.sampled_from(kinds + [object] if dtype is object else kinds))
        pair = None if factor is None else packed(packer, factor, kind)
        arrays.append((*packed(packer, terms, kind), pair))
    keys, coeffs = _packed.merge_products(arrays, dtype)
    check_merged(packer, keys, coeffs, dtype, expected)


@settings(max_examples=200, deadline=None)
@given(
    LAYOUTS,
    st.lists(st.tuples(EXPONENTS, st.integers(-3, 3)), max_size=12),
)
def test_merge_matches_reference(packer, pairs):
    # unsorted keys, repeated keys and zero coefficients in one buffer
    keys = packer.encode([e for e, _ in pairs])
    coeffs = np.array([c for _, c in pairs], dtype=np.int64)
    check_merged(packer, *_packed.merge(keys, coeffs), np.int64, refpoly._collect(pairs))


@settings(max_examples=100, deadline=None)
@given(LAYOUTS, st.integers(1, 40), st.data())
def test_chunked_rekey_matches_whole(src, chunk, data):
    terms = data.draw(st.dictionaries(EXPONENTS, SMALL, max_size=60))
    keys, _ = packed(src, terms, np.int64)
    dst = src.tight(keys)
    whole = src.rekey(keys, dst)
    with mock.patch.object(_packed, "_MERGE_CHUNK", chunk):
        chunked = src.rekey(keys, dst)
    assert chunked.dtype == whole.dtype == dst.key_dtype
    assert np.array_equal(chunked, whole)
    assert decode(dst, chunked, np.ones(len(keys))) == decode(src, keys, np.ones(len(keys)))


def rekey_by_slot(src, keys, dst):
    """The re-key one slot at a time: a mask and a shift per live slot, in
    the wider of the two key dtypes."""
    keys = keys.astype(_packed._wider(src.key_dtype, dst.key_dtype))
    out = np.zeros(len(keys), dtype=keys.dtype)
    for k, w in enumerate(src.widths):
        if w:
            part = keys & (src.masks[k] << src.shifts[k])
            up = dst.shifts[k] - src.shifts[k]
            out |= part << up if up >= 0 else part >> -up
    return out.astype(dst.key_dtype, copy=False)


@st.composite
def layout_pairs(draw):
    """(source layout, destination layout, exponent rows that fit both):
    slot widths of 0 to 24 bits, so either layout may need Python-int keys;
    the destination widens, keeps or narrows each slot to its widest row."""
    slots = draw(st.integers(1, 6))
    widths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 7, 24, 24]), min_size=slots, max_size=slots))
    tops = [draw(st.integers(0, w)) for w in widths]  # rows may leave a slot's top bits 0
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, (1 << t) - 1) for t in tops]), min_size=1, max_size=20))
    need = [max(r[k] for r in rows).bit_length() for k in range(slots)]
    dst = [draw(st.sampled_from([n, w, n + 1, n + 30])) for n, w in zip(need, widths)]
    return _packed.layout(tuple(widths)), _packed.layout(tuple(dst)), rows


@settings(max_examples=300, deadline=None)
@given(layout_pairs())
def test_rekey_by_runs_of_slots_matches_slot_by_slot(case):
    src, dst, rows = case
    keys = src.encode(rows)
    moved = src.rekey(keys, dst)
    expected = rekey_by_slot(src, keys, dst)
    assert moved.dtype == expected.dtype == dst.key_dtype
    assert moved.tolist() == expected.tolist() == dst.encode(rows).tolist()
