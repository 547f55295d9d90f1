"""Feature masks as fixed-width bitstrings: the one codec for the format.

A mask is a string of '0'/'1' of length n, written x_0 first: character i
selects dataset column i.  The same bit i is bit i of a statevector basis
index, so basis index 1 with n=3 renders as "100".  Python's base-2
conversions read and write the reversed string.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MaskError


def index_to_mask(index: int, n: int) -> str:
    """Render basis index ``index`` as an n-character mask, x_0 leftmost."""
    if n < 1 or index < 0 or index >= (1 << n):
        raise MaskError(f"index {index} out of range for {n} bits")
    return format(index, f"0{n}b")[::-1]


def mask_to_index(mask: str) -> int:
    # int(..., 2) also takes "1_0", " 10" and other digits, so validate first.
    validate_mask(mask)
    return int(mask[::-1], 2)


def validate_mask(mask: str, n: int | None = None) -> None:
    if not mask or mask.strip("01"):
        raise MaskError(f"not a bitstring: {mask!r}")
    if n is not None and len(mask) != n:
        raise MaskError(f"mask width {len(mask)} != expected {n}")


def validate_masks(masks: Sequence[str], n: int) -> None:
    """validate_mask(mask, n) for every mask, in one pass when all are valid."""
    try:
        valid = n > 0 and set(map(len, masks)) <= {n} and not "".join(masks).strip("01")
    except TypeError:
        valid = False
    if not valid:
        for mask in masks:
            validate_mask(mask, n)


def mask_columns(masks: Sequence[str], n: int) -> np.ndarray:
    """The (len(masks), n) bool matrix whose row r keeps the columns of masks[r]."""
    validate_masks(masks, n)
    codes = np.frombuffer("".join(masks).encode("ascii"), dtype=np.uint8)
    return (codes == ord("1")).reshape(len(masks), n)
