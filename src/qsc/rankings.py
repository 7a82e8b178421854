"""Classical ranking combinatorics.

Alternatives, strict rankings, and the basis table: the m! rankings of an
alternative set in Lehmer-index order, with their per-ranking facts, built
once per set. Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidArgument

# Cap on the ranking-space dimension m!: 6!, where the basis table holds 720
# rows and a dictator's d x d responses 518,400 float64 (4 MB).
MAX_RANKING_DIM = 720


@dataclass(frozen=True)
class AlternativeSet:
    """Ordered set of distinct alternative labels."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise InvalidArgument("need at least 2 alternatives")
        if len(set(names)) != len(names):
            raise InvalidArgument(f"alternative labels must be unique: {names}")
        if any(not isinstance(n, str) or not n for n in names):
            raise InvalidArgument("alternative labels must be nonempty strings")
        # A ranking string splits on '>' and strips each part (``Ranking.from_string``).
        if any(">" in n or n != n.strip() for n in names):
            raise InvalidArgument(
                f"alternative labels must not hold '>' or surrounding whitespace: {names}"
            )
        if factorial(len(names)) > MAX_RANKING_DIM:
            raise InvalidArgument(
                f"{len(names)} alternatives give a ranking space of dimension "
                f"{factorial(len(names))} > cap {MAX_RANKING_DIM}"
            )

    @property
    def m(self) -> int:
        return len(self.names)

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise InvalidArgument(f"unknown alternative {label!r}") from None

    def ordered_pairs(self) -> list[tuple[str, str]]:
        """All ordered pairs (x, y) with x != y, in a fixed scan order."""
        return [(x, y) for x in self.names for y in self.names if x != y]


# Slotted, since each basis table holds m! of them (720 at m=6).
@dataclass(frozen=True, slots=True)
class Ranking:
    """A strict total order; ``order[0]`` is the most preferred index."""

    alternatives: AlternativeSet
    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(self.alternatives.m)):
            raise InvalidArgument(f"not a permutation of 0..{self.alternatives.m - 1}: {order}")

    @classmethod
    def from_labels(cls, alternatives: AlternativeSet, labels: Sequence[str]) -> "Ranking":
        return cls(alternatives, tuple(alternatives.index(x) for x in labels))

    @classmethod
    def from_string(cls, alternatives: AlternativeSet, text: str) -> "Ranking":
        """The basis ranking spelt ``"a>b>c"``; whitespace around each label is accepted."""
        table = basis_table(alternatives)
        k = table.string_index.get(text)
        if k is None:
            parts = [p.strip() for p in text.split(">")]
            if any(not p for p in parts):
                raise InvalidArgument(f"malformed ranking string {text!r}")
            k = table.string_index.get(">".join(parts))
            if k is None:
                # Not a spelling of any ranking, so this raises with the offending label.
                return cls.from_labels(alternatives, parts)
        return table.rankings[k]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.alternatives.names[i] for i in self.order)

    def to_string(self) -> str:
        table = basis_table(self.alternatives)
        return table.strings[table.index[self.order]]

    def position(self, label: str) -> int:
        return self.order.index(self.alternatives.index(label))

    def top(self) -> str:
        return self.alternatives.names[self.order[0]]

    def prefers(self, x: str, y: str) -> bool:
        """True iff x appears before y; x and y must be distinct and known."""
        if x == y:
            raise InvalidArgument(f"cannot compare alternative {x!r} with itself")
        return self.position(x) < self.position(y)

    def reversed(self) -> "Ranking":
        return Ranking(self.alternatives, tuple(reversed(self.order)))

    def relabelled(self, perm: Sequence[int]) -> "Ranking":
        """Apply the label permutation i -> perm[i] to every position."""
        return Ranking(self.alternatives, tuple(perm[i] for i in self.order))


@dataclass(frozen=True, eq=False)
class BasisTable:
    """The m! basis rankings of one alternative set and their per-ranking facts.

    Entry k of each tuple and row k of each array (column k of ``orients``)
    describe basis ranking k; ``index`` maps an order, and ``string_index`` a
    compact string, back to k. The arrays are read-only.
    """

    rankings: tuple[Ranking, ...]
    strings: tuple[str, ...]  # the compact "a>b>c" form
    string_index: Mapping[str, int]  # compact string -> basis index
    index: Mapping[tuple[int, ...], int]  # order -> basis index
    above: np.ndarray  # d x m x m bool: ranking k places x above y
    upper: tuple[np.ndarray, np.ndarray]  # (x, y) index arrays of the pairs x < y, in ``np.triu_indices`` order
    pairs: np.ndarray  # d x C(m,2) bool: ``above`` at the pairs ``upper``
    pair_rows: Mapping[tuple[int, int], np.ndarray]  # (x, y), x != y -> the rankings placing x above y
    winner_rows: np.ndarray  # m x d/m: row a lists the rankings topped by a, one Lehmer block

    @cached_property
    def orients(self) -> np.ndarray:
        """``above`` as an m*m x d float32 array, row (x, y) by ordered pair: the kernel's right factor.

        Built at its first read, once per table, so only a process that
        scores a profile on the set holds it.
        """
        d, m, _ = self.above.shape
        orients = self.above.reshape(d, m * m).astype(np.float32).T
        orients.setflags(write=False)
        return orients


@lru_cache(maxsize=64)
def basis_table(alternatives: AlternativeSet) -> BasisTable:
    """The basis table of an alternative set, built once.

    Lexicographic permutations of 0..m-1 come in Lehmer-index order, so the
    k-th permutation is the ranking of basis index k (identity at 0), and the
    (m-1)! rankings topped by alternative a are the indices a(m-1)! up to
    (a+1)(m-1)! - 1.
    """
    m = alternatives.m
    names = alternatives.names
    perms = list(permutations(range(m)))
    positions = np.empty((len(perms), m), dtype=np.intp)  # positions[k, x]: the place of x in ranking k
    np.put_along_axis(positions, np.array(perms, dtype=np.intp), np.arange(m), axis=1)
    above = positions[:, :, None] < positions[:, None, :]
    upper = tuple(np.array(side, dtype=np.intp) for side in zip(*combinations(range(m), 2)))
    pairs = above[:, upper[0], upper[1]]
    pair_rows = {(x, y): np.flatnonzero(above[:, x, y]) for x in range(m) for y in range(m) if x != y}
    winner_rows = np.arange(len(perms), dtype=np.intp).reshape(m, -1)
    for array in (above, pairs, winner_rows, *upper, *pair_rows.values()):
        array.setflags(write=False)
    strings = tuple(">".join([names[i] for i in p]) for p in perms)
    return BasisTable(
        rankings=tuple(Ranking(alternatives, p) for p in perms),
        strings=strings,
        string_index={text: k for k, text in enumerate(strings)},
        index={p: k for k, p in enumerate(perms)},
        above=above,
        upper=upper,
        pairs=pairs,
        pair_rows=pair_rows,
        winner_rows=winner_rows,
    )


def ranking_index(ranking: Ranking) -> int:
    """Lehmer rank of the ranking among all m! orders; identity maps to 0."""
    return basis_table(ranking.alternatives).index[ranking.order]


def all_rankings(alternatives: AlternativeSet) -> tuple[Ranking, ...]:
    """All rankings in basis-index order, so ``all_rankings(A)[k]`` has index k."""
    return basis_table(alternatives).rankings
