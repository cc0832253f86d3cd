"""Small helpers for int-encoded bitsets.

Subsets of an indexed carrier are stored as Python ints throughout the
package: bit i is set iff element i belongs to the subset.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Sequence

# The values a byte holds, and the length of a bytes.translate table: carriers
# this small keep table rows as bytes (`algebra.row_type`), which `algebra.pick`
# gathers about ten times faster than tuples; `preimage` reads images so too.
BYTE_WIDTH = 256


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
    """The indices i with mapping[i] in mask, in one C call: mask as a row of
    "0" and "1" by bit position, read at every image and back in binary.
    Images below BYTE_WIDTH take one bytes.translate of a BYTE_WIDTH-byte
    row, a larger one a str row; a negative mask reads as two's complement."""
    try:
        images = bytes(mapping)
    except ValueError:  # an image outside range(BYTE_WIDTH)
        if min(mapping) < 0:
            raise ValueError(f"negative image {min(mapping)}") from None
        width = max(mapping) + 1
        row = format(mask & (1 << width) - 1, "b").zfill(width)[::-1]
        return int("".join(map(row.__getitem__, mapping))[::-1], 2)
    row = format(mask & (1 << BYTE_WIDTH) - 1, "b").zfill(BYTE_WIDTH)[::-1].encode()
    return int(images.translate(row)[::-1] or b"0", 2)
