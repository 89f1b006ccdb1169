"""Bitmask conventions for subsets of {1, ..., p}.

Component with 1-based label ``k`` corresponds to bit ``k - 1``.  A nonempty
subset is any mask in [1, 2**p - 1]; the empty set (mask 0) is excluded from
stored coefficient arrays but appears transiently in lattice transforms.
"""

from __future__ import annotations


def mask_of(*labels: int) -> int:
    """Mask of a subset given 1-based component labels: mask_of(1, 3) == 0b101."""
    m = 0
    for k in labels:
        if k < 1:
            raise ValueError(f"component labels are 1-based, got {k}")
        m |= 1 << (k - 1)
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based component labels of a mask."""
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def full_mask(p: int) -> int:
    return (1 << p) - 1


def canonical_cut(mask: int, p: int) -> int:
    """Representative of the pair {J, J^c}: the side containing component 1."""
    return mask if mask & 1 else full_mask(p) ^ mask


def canonical_cuts(p: int) -> list[int]:
    """All proper canonical cuts, ascending; there are 2**(p-1) - 1 of them."""
    fm = full_mask(p)
    return [m for m in range(1, fm) if m & 1]


def set_str(mask: int) -> str:
    """Human-readable subset, e.g. "{1,3}"."""
    return "{" + ",".join(str(k) for k in labels_of(mask)) + "}"
