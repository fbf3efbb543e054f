from math import comb
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmmkit.bitsets import down_closure, elements_of, mask_of, submasks


def k_subset_masks(n: int, k: int) -> Iterator[int]:
    """Yield all k-element subsets of [n] as masks in ascending numeric order.

    A test helper (the stage-plan tests use it too): no library code walks
    subsets by size.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        # Gosper's hack: next larger int with the same popcount.
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def test_mask_of_elements_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == (0, 2, 5)
    assert mask_of([]) == 0
    assert elements_of(0) == ()


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_round_trip_random_masks(mask):
    assert mask_of(elements_of(mask)) == mask


def test_submasks_cover_powerset():
    subs = list(submasks(0b1011))
    assert len(subs) == 8
    assert set(subs) == {s for s in range(16) if s & ~0b1011 == 0}
    assert subs[0] == 0b1011  # descending, ends at the empty mask
    assert subs[-1] == 0


def test_submasks_of_zero():
    assert list(submasks(0)) == [0]


@pytest.mark.parametrize("n,k", [(4, 0), (4, 2), (5, 3), (6, 1)])
def test_k_subset_masks_counts(n, k):
    masks = list(k_subset_masks(n, k))
    assert len(masks) == comb(n, k)
    assert all(m.bit_count() == k for m in masks)
    assert masks == sorted(masks)


def _check_down_closure(members, width):
    table = down_closure(members, width)
    assert len(table) == 1 << width
    for t in range(1 << width):
        below = [s for s in members if s & ~t == 0]
        if below:
            assert table[t] in below
        else:
            assert table[t] == -1


@pytest.mark.parametrize("width", range(4))
def test_down_closure_every_family_of_small_widths(width):
    # every family of masks over up to 3 bits, every query mask
    for family in range(1 << (1 << width)):
        _check_down_closure([s for s in range(1 << width) if family >> s & 1], width)


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=20))
))
def test_down_closure_every_query_up_to_width_six(case):
    width, members = case
    _check_down_closure(members, width)


def test_down_closure_rejects_masks_wider_than_the_table():
    with pytest.raises(ValueError):
        down_closure([0b100], 2)
