"""Bit-mask helpers for colour subsets.

Colour subsets are packed into ints: bit i is set when colour i is in the
subset.  All iteration orders are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(elements: Iterable[int]) -> int:
    """Pack an iterable of nonnegative ints into a bit mask."""
    mask = 0
    for e in elements:
        if e < 0:
            raise ValueError(f"negative element {e} cannot be packed into a mask")
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into its elements in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and mask itself).

    Order is descending numeric, which is deterministic and makes the
    complement pairing below reproducible.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def k_subset_masks(n: int, k: int) -> Iterator[int]:
    """Yield all k-element subsets of [n] as masks in ascending numeric order."""
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


def down_closure(members: Iterable[int], width: int) -> list[int]:
    """Subset-zeta table over the masks of ``width`` bits.

    ``table[t]`` is a member that is a subset of ``t``, or -1 when no member
    is.  This is the OR-zeta transform (Yates): a mask sees a member exactly
    when it is one or one of its one-bit-smaller submasks sees one.  The
    masks are swept in ascending order, so those submasks are done first,
    and each mask stops at its first hit; that is O(width * 2^width) steps at
    worst.  The member a mask sees is fixed by the sweep order, so the table
    is deterministic.
    """
    size = 1 << width
    table = [-1] * size
    for s in members:
        if not 0 <= s < size:
            raise ValueError(f"member {s} is not a mask of {width} bits")
        table[s] = s
    for t in range(1, size):
        if table[t] < 0:
            rest = t
            while rest:
                low = rest & -rest
                seen = table[t ^ low]
                if seen >= 0:
                    table[t] = seen
                    break
                rest ^= low
    return table
