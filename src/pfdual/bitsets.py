"""Small helpers for int-encoded bitsets.

Subsets of an indexed carrier are stored as Python ints throughout the
package: bit i is set iff element i belongs to the subset.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Sequence


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(mapping: Sequence[int], mask: int) -> int:
    """The values mapping[i] of the indices i in mask."""
    return mask_of(mapping[i] for i in bits(mask))


def preimage(mapping: Sequence[int], mask: int) -> int:
    """The indices i with mapping[i] in mask."""
    return mask_of(i for i, v in enumerate(mapping) if mask >> v & 1)
