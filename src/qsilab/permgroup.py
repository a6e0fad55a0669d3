"""Permutations on {1..n}: the symmetric group as a cached table of one-line
rows with their signs, partitions of {1..n}, and setwise-stabilizer counts.

The tables give the control group of the permutation and alternation
circuits, and the stabilizer counts are exact integers counted over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_permutations
from typing import Iterable, Literal

import numpy as np

from .limits import SYM_ENUM_MAX_N, CapExceededError

GroupName = Literal["sym", "alt"]


def _check_enum_cap(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"n must be at least {minimum}, got {n}")
    if n > SYM_ENUM_MAX_N:
        raise CapExceededError(
            f"group enumeration is capped at n={SYM_ENUM_MAX_N}, got {n}"
        )


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """All of S_n as an (n!, n) int8 array of one-line rows, lexicographic.

    Row 0 is the identity. Read-only; shared by the circuit's control group
    and stabilizer_count.
    """
    _check_enum_cap(n, 1)
    table = np.array(list(_lex_permutations(range(1, n + 1))), dtype=np.int8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def sign_table(n: int) -> np.ndarray:
    """Signs of perm_table(n) rows (+1/-1), via vectorized inversion parity."""
    table = perm_table(n)
    odd = np.zeros(len(table), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            odd ^= table[:, i] > table[:, j]
    signs = np.where(odd, -1, 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


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


def stabilizer_count(part: Partition, group: GroupName = "sym") -> int:
    """Exact number of group elements that setwise-stabilize the partition.

    Counts by enumeration over the cached group table, so part.n is capped at
    the enumeration limit.
    """
    if group not in ("sym", "alt"):
        raise ValueError(f"unknown group {group!r}")
    n = part.n
    _check_enum_cap(n, 1 if group == "sym" else 2)
    table = perm_table(n)
    ok = np.ones(len(table), dtype=bool)
    for block in part.blocks:
        cols = np.fromiter((i - 1 for i in sorted(block)), dtype=np.intp)
        member = np.zeros(n + 1, dtype=bool)
        member[list(block)] = True
        ok &= member[table[:, cols]].all(axis=1)
    if group == "alt":
        ok &= sign_table(n) == 1
    return int(ok.sum())
