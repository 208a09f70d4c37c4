import itertools

import numpy as np
import pytest

from xover.construct import (
    MAX_REPLICATE_S,
    MAX_WILLIAMS_T,
    extreme_design,
    fixture,
    relabel,
    replicate,
    union,
    williams_pair,
    williams_square,
)
from xover.designs import classify, truncate, validate_ubrmd


def test_williams_square_reproduces_printed_square():
    np.testing.assert_array_equal(williams_square(4).layout, fixture("d2plan").layout)


def test_williams_square_even_range():
    for t in (4, 6, 8, 10):
        d = williams_square(t)
        assert d.g == 1
        assert validate_ubrmd(d).ok


def test_williams_square_precedence_counts():
    d = williams_square(6)
    prec = np.zeros((6, 6), dtype=int)
    for j in range(1, 6):
        for i in range(6):
            prec[d.layout[j, i], d.layout[j - 1, i]] += 1
    np.testing.assert_array_equal(prec, np.ones((6, 6), dtype=int) - np.eye(6, dtype=int))


def test_williams_square_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        williams_square(5)
    with pytest.raises(ValueError, match="even"):
        williams_square(2)


def test_williams_pair_reproduces_printed_pairs():
    np.testing.assert_array_equal(williams_pair(3).layout, fixture("d1plan").layout)
    np.testing.assert_array_equal(williams_pair(5).layout, fixture("d3plan").layout)


def test_williams_pair_second_square_is_reversal():
    d = williams_pair(5)
    np.testing.assert_array_equal(d.layout[:, 5:], d.layout[::-1, :5])


def test_williams_pair_odd_range():
    for t in (3, 5, 7, 9):
        d = williams_pair(t)
        assert d.g == 2
        assert validate_ubrmd(d).ok


def test_williams_t_limit():
    assert williams_square(MAX_WILLIAMS_T).s == 1000
    assert williams_pair(MAX_WILLIAMS_T - 1).s == 1998
    for build, t, rule in (
        (williams_square, MAX_WILLIAMS_T + 2, "even t with 4"),
        (williams_pair, MAX_WILLIAMS_T + 1, "odd t with 3"),
    ):
        with pytest.raises(ValueError) as info:
            build(t)
        assert str(info.value) == (
            f"{build.__name__} requires {rule} <= t <= 1000, got t={t}"
        )


def test_williams_huge_t_fails_at_once():
    # a 3000-digit t is refused before any list or layout of t entries
    shown = r"<= 1000, got t=1\d{19}\.\.\. \(3000 digits\)$"
    for build, t in ((williams_square, 10**2999), (williams_pair, 10**2999 + 1)):
        with pytest.raises(ValueError, match=shown):
            build(t)


def test_williams_pair_classifies_class_b():
    assert classify(williams_pair(5)) == "ClassB-W1"


def test_williams_pair_rejects_even():
    with pytest.raises(ValueError, match="odd"):
        williams_pair(4)


def test_extreme_design_columns_are_all_permutations():
    d = extreme_design(3)
    assert d.s == 6 and d.g == 2
    cols = {tuple(d.layout[:, i]) for i in range(6)}
    assert cols == set(itertools.permutations(range(3)))


def test_extreme_design_lexicographic_order():
    d = extreme_design(4)
    cols = [tuple(d.layout[:, i]) for i in range(d.s)]
    assert cols == sorted(cols)


@pytest.mark.parametrize("t", range(3, 9))
def test_extreme_design_is_the_permutations_in_order(t):
    reference = np.array(list(itertools.permutations(range(t)))).T
    layout = extreme_design(t).layout
    assert layout.dtype == reference.dtype
    np.testing.assert_array_equal(layout, reference)
    assert not layout.flags.writeable


def test_extreme_design_validates():
    d = extreme_design(4)
    assert d.g == 6
    assert validate_ubrmd(d).ok


def test_extreme_design_uniform_per_period():
    d = extreme_design(5)
    for j in range(5):
        counts = np.bincount(d.layout[j, :], minlength=5)
        np.testing.assert_array_equal(counts, np.full(5, 24))


def test_extreme_design_guard():
    with pytest.raises(ValueError, match="3 <= t <= 8"):
        extreme_design(2)
    with pytest.raises(ValueError, match="3 <= t <= 8"):
        extreme_design(9)


def test_union_singleton_is_identity():
    d = fixture("d2plan")
    u = union([d])
    np.testing.assert_array_equal(u.layout, d.layout)
    assert u.blocks() == d.blocks()


def test_union_replication_classifies_class_a():
    u = union([williams_square(4)] * 3)
    assert u.s == 12 and u.g == 3
    assert classify(u) == "ClassA-W1"


def test_union_of_distinct_squares():
    u = union([fixture("ex13sq1"), fixture("ex13sq2")])
    assert u.t == 6 and u.s == 12
    assert validate_ubrmd(u).ok
    assert u.blocks() == (tuple(range(6)), tuple(range(6, 12)))


def test_union_mismatched_dimensions():
    with pytest.raises(ValueError, match="matching t and p"):
        union([fixture("d2plan"), fixture("d3plan")])


def test_replicate():
    r = replicate(fixture("d2plan"), 2)
    assert r.s == 8
    np.testing.assert_array_equal(r.layout[:, :4], r.layout[:, 4:])
    with pytest.raises(ValueError, match=">= 1"):
        replicate(fixture("d2plan"), 0)
    np.testing.assert_array_equal(replicate(fixture("d2plan"), np.int64(2)).layout, r.layout)
    # True built one copy, and 2.0 raised a list TypeError
    for reps, kind in ((True, "bool"), (2.0, "float"), ("2", "str")):
        with pytest.raises(ValueError) as info:
            replicate(fixture("d2plan"), reps)
        assert str(info.value) == f"reps must be an integer, got {kind}"


def test_replicate_subject_limit():
    pair = williams_pair(5)
    assert replicate(pair, MAX_REPLICATE_S // 10).s == MAX_REPLICATE_S
    for reps, shown in ((MAX_REPLICATE_S // 10 + 1, "10001"), (10**3000, None)):
        with pytest.raises(ValueError) as info:
            replicate(pair, reps)
        shown = shown or "10000000000000000000... (3001 digits)"
        assert str(info.value) == (
            f"replicate allows at most 100000 subjects, got reps={shown} "
            "copies of s=10"
        )


def test_relabel_identity_and_inverse():
    d = fixture("d2plan")
    np.testing.assert_array_equal(relabel(d, [0, 1, 2, 3]).layout, d.layout)
    perm = [1, 2, 3, 0]
    inverse = [3, 0, 1, 2]
    np.testing.assert_array_equal(relabel(relabel(d, perm), inverse).layout, d.layout)


def test_relabel_preserves_validation():
    d = relabel(fixture("d2plan"), [1, 2, 3, 0])
    assert validate_ubrmd(d).ok


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        relabel(fixture("d2plan"), [0, 0, 1, 2])


@pytest.mark.parametrize(
    "perm", [[0, 1.5, 2, 3], [0.0, 1.0, 2.0, 3.0], ["0", "1", "2", "3"]]
)
def test_relabel_rejects_entries_that_are_not_integers(perm):
    # a float entry is not truncated to an integer label
    with pytest.raises(ValueError, match="^perm must be a bijection on 0..3$"):
        relabel(williams_square(4), perm)
    assert relabel(williams_square(4), np.array([1, 0, 2, 3])).t == 4


def test_relabel_commutes_with_truncate():
    d = fixture("d3plan")
    perm = [4, 2, 0, 1, 3]
    a = truncate(relabel(d, perm), 1)
    b = relabel(truncate(d, 1), perm)
    np.testing.assert_array_equal(a.layout, b.layout)


def test_fixture_shapes_and_rows():
    d1 = fixture("d1plan")
    assert d1.layout.shape == (3, 6)
    np.testing.assert_array_equal(
        fixture("d2plan").layout,
        [[0, 1, 2, 3], [1, 2, 3, 0], [3, 0, 1, 2], [2, 3, 0, 1]],
    )
    np.testing.assert_array_equal(fixture("ex13sq2").layout[0], [2, 5, 1, 3, 0, 4])


def test_all_fixtures_validate():
    for name in ("d1plan", "d2plan", "d3plan", "ex13sq1", "ex13sq2"):
        assert validate_ubrmd(fixture(name)).ok, name


def test_fixture_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")
