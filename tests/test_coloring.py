import pytest

from colorref import (
    Coloring,
    coloring_from_labels,
    colorings_isomorphic,
    partition_of,
)
from conftest import is_refinement


def col(*labels):
    return coloring_from_labels(labels)


def test_coloring_validates_compactness():
    with pytest.raises(ValueError, match="compact"):
        Coloring((0, 2), 3)
    with pytest.raises(ValueError, match="outside"):
        Coloring((0, 5), 2)
    # rejected before a palette of that size is allocated
    with pytest.raises(ValueError, match="compact"):
        Coloring((0,), 10**19)
    assert Coloring((), 0).palette_size == 0


@pytest.mark.parametrize(
    "colors, k, message",
    [
        ((0,), -1, "palette_size must be non-negative"),
        ((0,), 10**19, "palette is not compact: 10000000000000000000 colors for 1 vertices"),
        ((0, 5), 2, "color 5 of vertex 1 outside palette 0..1"),
        ((0, 2, 0), 3, "palette is not compact: color 1 unused"),
    ],
    ids=["negative-palette", "palette-above-n", "color-outside", "color-unused"],
)
def test_coloring_constructor_rejects(colors, k, message):
    with pytest.raises(ValueError) as info:
        Coloring(colors, k)
    assert str(info.value) == message


def test_a_coloring_of_a_list_equals_its_tuple_twin():
    c, twin = Coloring([0, 1, 0], 2), Coloring((0, 1, 0), 2)
    assert type(c.colors) is tuple
    assert c == twin and hash(c) == hash(twin)


def test_compaction_orders_classes_by_original_label():
    assert col(7, 7, 9).colors == (0, 0, 1)
    assert col(9, 7).colors == (1, 0)
    assert col(0, 1, 2).colors == (0, 1, 2)
    assert col().palette_size == 0


def test_isomorphic_relabeling():
    w = colorings_isomorphic(col(0, 1, 0), col(1, 0, 1))
    assert w is not None
    assert w == (1, 0)


def test_not_isomorphic_when_map_is_multivalued():
    assert colorings_isomorphic(col(0, 0, 1), col(0, 1, 1)) is None
    assert colorings_isomorphic(col(0, 1, 1), col(0, 0, 1)) is None


def test_isomorphic_to_itself():
    c = col(2, 0, 1, 0)
    w = colorings_isomorphic(c, c)
    assert w == (0, 1, 2)


def test_isomorphic_requires_same_vertex_set():
    with pytest.raises(ValueError):
        colorings_isomorphic(col(0, 1), col(0, 1, 1))


def test_isomorphic_empty():
    assert colorings_isomorphic(col(), col()) == ()


def test_refinement_of_trivial_coloring():
    assert is_refinement(col(0, 0, 0, 0), col(0, 1, 1, 0))


def test_merge_is_not_a_refinement():
    assert not is_refinement(col(0, 1, 1, 1), col(0, 1, 0, 1))


def test_refinement_is_reflexive():
    c = col(0, 1, 2, 1)
    assert is_refinement(c, c)


def test_refinement_size_mismatch():
    with pytest.raises(ValueError):
        is_refinement(col(0), col(0, 0))


def test_mutual_refinement_equals_isomorphism():
    a, b = col(0, 1, 1, 0), col(1, 0, 0, 1)
    assert is_refinement(a, b) and is_refinement(b, a)
    assert colorings_isomorphic(a, b) is not None
    c = col(0, 1, 2, 0)
    assert is_refinement(a, c) and not is_refinement(c, a)
    assert colorings_isomorphic(a, c) is None


def test_partition_of_examples():
    assert partition_of(col(0, 1, 1, 0)) == ((0, 3), (1, 2))
    assert partition_of(col(0, 0, 0)) == ((0, 1, 2),)
    assert partition_of(col(2, 0, 1)) == ((0,), (1,), (2,))
    assert partition_of(col()) == ()
