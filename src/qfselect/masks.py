"""Feature masks as fixed-width bitstrings.

A mask is a string of '0'/'1' of length n, written x_0 first: character i
selects dataset column i.  The same bit i is bit i of a statevector basis
index, so basis index 1 with n=3 renders as "100".
"""

from __future__ import annotations

from .errors import MaskError


def index_to_mask(index: int, n: int) -> str:
    """Render basis index ``index`` as an n-character mask, x_0 leftmost."""
    if index < 0 or index >= (1 << n):
        raise MaskError(f"index {index} out of range for {n} bits")
    return "".join("1" if (index >> i) & 1 else "0" for i in range(n))


def mask_to_index(mask: str) -> int:
    validate_mask(mask)
    return sum(1 << i for i, ch in enumerate(mask) if ch == "1")


def validate_mask(mask: str, n: int | None = None) -> None:
    if not mask or any(ch not in "01" for ch in mask):
        raise MaskError(f"not a bitstring: {mask!r}")
    if n is not None and len(mask) != n:
        raise MaskError(f"mask width {len(mask)} != expected {n}")
