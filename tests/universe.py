"""The majority signatures basis profiles reach, by electorate size.

A basis profile's tally counts, for each pair x < y, the voters placing x
above y; its majority signature is the tally's classes (``welfare._classes``),
and ``qcv`` reads a basis profile only through it. ``reachable`` walks the
tallies voter by voter, keeping one basis tuple per tally, and then one per
signature, so the rule's whole output set on basis profiles of n voters is
one kernel row per entry.
"""

import numpy as np

from qsc.rankings import AlternativeSet, basis_table
from qsc.welfare import _classes


def signatures(alternatives: AlternativeSet, idx: np.ndarray) -> np.ndarray:
    """The majority signature of each row of basis indices (k x n -> k x C(m,2))."""
    return _classes(idx.shape[1])[basis_table(alternatives).pairs[idx].sum(axis=1)]


def reachable(alternatives: AlternativeSet, max_n: int) -> dict[int, dict[tuple[int, ...], tuple[int, ...]]]:
    """For each n in 1..max_n, each reachable signature mapped to a basis tuple that reaches it.

    Tallies pack into one integer, base max_n + 1; each step adds every
    ranking's packed ``pairs`` row to every tally and keeps the first basis
    tuple to reach each new tally.
    """
    pairs = basis_table(alternatives).pairs.astype(np.int64)
    powers = (max_n + 1) ** np.arange(pairs.shape[1], dtype=np.int64)
    packed, d = pairs @ powers, len(pairs)
    codes, tuples = np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.intp)
    out = {}
    for n in range(1, max_n + 1):
        codes, first = np.unique((codes[:, None] + packed).ravel(), return_index=True)
        tuples = np.concatenate([tuples[first // d], (first % d)[:, None]], axis=1)
        rows = _classes(n)[codes[:, None] // powers % (max_n + 1)]
        _, at = np.unique(rows, axis=0, return_index=True)
        out[n] = {tuple(rows[i].tolist()): tuple(tuples[i].tolist()) for i in sorted(at)}
    return out
