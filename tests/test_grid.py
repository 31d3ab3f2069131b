import itertools

import pytest

from gpd.grid import (
    InvalidDreamError,
    PipeDream,
    Tile,
    connectivity,
    count_dreams,
    crossing_flip,
    enumerate_dreams,
    mirror,
    parse_dream,
    pipe_numbering,
    serialize,
    validate,
    weight,
)
from gpd.poly import Polynomial, parse
from gpd.schubert import all_hybridizations, all_partial_perms, gamma_conjugate

INTRO_DREAM = "3 4\nWEW\nne+n\n.n+-\n--n.\n"


def product(m, n, texts):
    out = Polynomial.const(1, m, n)
    for t in texts:
        out = out * parse(t, m, n)
    return out


def test_pipe_numbering():
    assert pipe_numbering("WEW") == (1, 3, 2)
    assert pipe_numbering("WWWW") == (1, 2, 3, 4)
    assert pipe_numbering("EE") == (2, 1)
    assert pipe_numbering("EWE") == (3, 1, 2)


def test_pipe_numbering_is_built_once_per_row_type():
    pipe_numbering.cache_clear()
    for beta in ["WEW", "EE", "WEW", "EE", "WEW"]:
        pipe_numbering(beta)
    assert pipe_numbering.cache_info()[:2] == (3, 2)  # hits, misses
    for bad in ["WXW", "we", "WXW"]:
        with pytest.raises(ValueError):
            pipe_numbering(bad)
    assert pipe_numbering.cache_info().currsize == 2


def test_intro_dream_connectivity_and_crossings():
    d = parse_dream(INTRO_DREAM)
    pi, crossings = connectivity(d)
    assert pi == (1, 3, 4)
    # pipes 2 and 3 cross twice, which generic dreams allow
    assert crossings == ((2, 3), (2, 3))


def test_intro_dream_weight():
    d = parse_dream(INTRO_DREAM)
    expected = parse("A+B", 3, 4) ** 5 * product(
        3,
        4,
        ["A+x1-y3", "A+x3-y1", "B-x3+y3", "B-x3+y4", "A+x2-y1", "A+x2-y2", "B-x2+y4"],
    )
    assert weight(d) == expected


def test_unique_1x1_dream():
    dreams = list(enumerate_dreams(1, 1, "W"))
    assert dreams == [PipeDream(1, 1, "W", ((Tile.ELBOW_IN,),))]
    assert connectivity(dreams[0])[0] == (1,)
    assert weight(dreams[0]) == parse("A + B", 1, 1)


def test_counts_3x3_312():
    assert count_dreams(3, 3, "EWE", (3, 1, 2)) == 2
    assert count_dreams(3, 3, "WWW", (3, 1, 2)) == 2


def test_counts_4x5_1253():
    assert count_dreams(4, 5, "EWEW", (1, 2, 5, 3)) == 76
    assert count_dreams(4, 5, "WWWW", (1, 2, 5, 3)) == 78
    assert count_dreams(4, 5, "EEEE", (1, 2, 5, 3)) == 80


def test_all_w_decreasing_2x2():
    dreams = list(enumerate_dreams(2, 2, "WW", (2, 1)))
    assert len(dreams) == 1
    pi, crossings = connectivity(dreams[0])
    # reversing the two pipes forces an odd number of crossings of {1, 2};
    # the unique dream realizes exactly one, at the cross in its top row
    assert pi == (2, 1) and crossings == ((1, 2),)
    assert dreams[0].tiles == (
        (Tile.CROSS, Tile.ELBOW_IN),
        (Tile.ELBOW_IN, Tile.BLANK),
    )


def test_enumerate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        list(enumerate_dreams(3, 2, "WWW"))
    with pytest.raises(ValueError):
        list(enumerate_dreams(2, 2, "W"))
    with pytest.raises(ValueError):
        list(enumerate_dreams(2, 2, "WX"))
    with pytest.raises(ValueError):
        list(enumerate_dreams(2, 3, "WW", (1, 1)))


def test_every_enumerated_dream_validates():
    for m, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
        for beta in all_hybridizations(m):
            for d in enumerate_dreams(m, n, beta):
                validate(d)
                pi, _ = connectivity(d)
                assert sorted(pi) == sorted(set(pi))
                assert all(1 <= c <= n for c in pi)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)])
def test_validate_accepts_exactly_the_dreams(m, n):
    """Every tiling of every row type: validate accepts it iff it is a dream."""
    for beta in all_hybridizations(m):
        dreams = {d.tiles for d in enumerate_dreams(m, n, beta)}
        accepted = set()
        for cells in itertools.product(Tile, repeat=m * n):
            tiles = tuple(cells[i * n : (i + 1) * n] for i in range(m))
            try:
                validate(PipeDream(m, n, beta, tiles))
            except InvalidDreamError:
                continue
            accepted.add(tiles)
        assert accepted == dreams, (m, n, beta)


def test_stream_is_deterministic():
    first = [serialize(d) for d in enumerate_dreams(2, 3, "WE")]
    second = [serialize(d) for d in enumerate_dreams(2, 3, "WE")]
    assert first == second
    assert len(set(first)) == len(first)


def test_every_connectivity_is_covered():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]:
        words = set(all_partial_perms(m, n))
        for beta in all_hybridizations(m):
            seen = set()
            for d in enumerate_dreams(m, n, beta):
                seen.add(connectivity(d)[0])
            assert seen == words, (m, n, beta)


def test_nongeneric_mode_constraints():
    for beta in all_hybridizations(2):
        for d in enumerate_dreams(2, 3, beta, mode="nongeneric"):
            for i in (1, 2):
                banned = Tile.STRAIGHT_V if d.row_type(i) == "W" else Tile.DOUBLE_ELBOW
                assert banned not in d.tiles[i - 1]
            _, crossings = connectivity(d)
            assert len(set(crossings)) == len(crossings)


def test_nongeneric_is_a_subset_of_generic():
    generic = set(map(serialize, enumerate_dreams(3, 3, "WWW")))
    nongeneric = set(map(serialize, enumerate_dreams(3, 3, "WWW", mode="nongeneric")))
    assert nongeneric < generic


def test_mirror_involution_and_connectivity():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        for beta in all_hybridizations(m):
            for d in enumerate_dreams(m, n, beta):
                md = mirror(d)
                validate(md)
                assert mirror(md) == d
                assert md.beta == "".join("E" if c == "W" else "W" for c in d.beta)
                assert connectivity(md)[0] == gamma_conjugate(connectivity(d)[0], m, n)


def test_mirror_1x2_example():
    d = PipeDream(1, 2, "W", ((Tile.ELBOW_IN, Tile.BLANK),))
    assert mirror(d) == PipeDream(1, 2, "E", ((Tile.BLANK, Tile.ELBOW_IN),))


def test_mirror_3x3_example_conjugate():
    assert gamma_conjugate((3, 1, 2), 3, 3) == (2, 3, 1)
    d = next(iter(enumerate_dreams(3, 3, "EWE", (3, 1, 2))))
    assert connectivity(mirror(d))[0] == (2, 3, 1)


def test_mirror_weight_substitution():
    from gpd.schubert import mirror_substitution

    for d in enumerate_dreams(2, 3, "WE"):
        assert weight(mirror(d)) == mirror_substitution(weight(d))


def test_crossing_flip_displayed_example():
    d = PipeDream(
        1, 4, "W", ((Tile.STRAIGHT_H, Tile.STRAIGHT_H, Tile.ELBOW_IN, Tile.BLANK),)
    )
    flipped = crossing_flip(d)
    assert flipped == PipeDream(
        1, 4, "E", ((Tile.BLANK, Tile.BLANK, Tile.ELBOW_IN, Tile.STRAIGHT_H),)
    )
    assert crossing_flip(flipped) == d


def test_crossing_flip_n1():
    d = PipeDream(1, 1, "W", ((Tile.ELBOW_IN,),))
    assert crossing_flip(d) == PipeDream(1, 1, "E", ((Tile.ELBOW_IN,),))


def test_crossing_flip_preserves_weight_and_north_edges():
    for n in range(1, 6):
        for beta in ("W", "E"):
            for d in enumerate_dreams(1, n, beta):
                flipped = crossing_flip(d)
                assert flipped.beta != d.beta
                assert weight(flipped) == weight(d)
                north = lambda dd: [
                    dd.tile(1, j) in (Tile.ELBOW_IN, Tile.STRAIGHT_V, Tile.CROSS, Tile.DOUBLE_ELBOW)
                    for j in range(1, n + 1)
                ]
                assert north(flipped) == north(d)


def test_crossing_flip_rejects_multirow():
    d = next(iter(enumerate_dreams(2, 2, "WW")))
    with pytest.raises(ValueError):
        crossing_flip(d)


def test_serialize_examples():
    d = PipeDream(1, 1, "W", ((Tile.ELBOW_IN,),))
    assert serialize(d) == "1 1\nW\nn\n"
    d2 = parse_dream("2 2\nWE\nn|\n.n\n")
    assert serialize(d2) == "2 2\nWE\nn|\n.n\n"


def test_parse_serialize_roundtrip_all_2x2():
    for beta in all_hybridizations(2):
        for d in enumerate_dreams(2, 2, beta):
            assert parse_dream(serialize(d)) == d


def test_parse_dream_names_first_bad_edge():
    with pytest.raises(InvalidDreamError) as info:
        parse_dream("1 2\nW\nnn\n")  # second cell claims a West pipe that is not there
    assert "V(1,1)" in str(info.value)
    with pytest.raises(InvalidDreamError) as info:
        parse_dream("1 2\nW\n--\n")  # pipe exits the East end
    assert "V(1,2)" in str(info.value)
    with pytest.raises(InvalidDreamError) as info:
        parse_dream("1 2\nW\nne\n")  # elbow-out needs a South pipe in the last row
    assert "H(1,2)" in str(info.value)
    with pytest.raises(InvalidDreamError):
        parse_dream("2 2\nWE\nnn\n..\n")  # row-2 North edges disagree with row 1
    with pytest.raises(InvalidDreamError) as info:
        parse_dream("2 2\nWW\nn.\nn.\n")  # row 2 sends a pipe up, row 1 ignores it
    assert "H(1,1)" in str(info.value)
    with pytest.raises(InvalidDreamError) as info:
        parse_dream("2 3\nWW\n+n|\nn..\n")  # row 1 claims a South pipe row 2 lacks
    assert "H(1,3)" in str(info.value)
    with pytest.raises(InvalidDreamError):
        parse_dream("1 2\nW\nnq\n")


def test_exactly_m_pipes_and_distinct_exits():
    for beta in all_hybridizations(3):
        for d in enumerate_dreams(3, 4, beta):
            pi, _ = connectivity(d)
            assert len(set(pi)) == 3
