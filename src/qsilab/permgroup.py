"""Partitions of {1..n}: the block structure of a promise instance.

A block holds the indices of mutually equal states; states in different
blocks are orthogonal. A partition is also written as a label row, the
0-based block index of each element; ``fixed_shifts`` counts the cyclic
shifts that fix each of a stack of label rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering {1..n}; block order is meaningful."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(int(i) for i in b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        union: set[int] = set()
        total = 0
        for b in blocks:
            union |= b
            total += len(b)
        if total != len(union):
            raise ValueError("partition blocks must be disjoint")
        if union != set(range(1, self.n + 1)):
            raise ValueError(f"blocks must cover 1..{self.n} exactly, got {sorted(union)}")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build a partition of {1..n} where n is the total element count."""
        blocks = tuple(tuple(b) for b in blocks)
        n = sum(len(b) for b in blocks)
        return cls(n, tuple(frozenset(b) for b in blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def labels(self) -> tuple[int, ...]:
        """0-based block index of each element 1..n."""
        lab = [0] * self.n
        for idx, b in enumerate(self.blocks):
            for i in b:
                lab[i - 1] = idx
        return tuple(lab)


def fixed_shifts(rows: np.ndarray, g: int) -> np.ndarray:
    """Number of cyclic shifts that fix each row of a (k, n) label array.

    The shifts fixing a row form a cyclic group whose order divides the gcd
    of its block sizes. So for any divisor g of n that the order divides
    (that gcd, or n itself) the count is the largest t | g for which the row
    repeats with period n/t, and 1 when g = 1.
    """
    n = rows.shape[1]
    fixed = np.ones(len(rows), dtype=int)
    for t in range(2, g + 1):
        if g % t == 0:
            s = n // t
            fixed[(rows[:, s:] == rows[:, :-s]).all(axis=1)] = t
    return fixed
