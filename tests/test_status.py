"""Society's status on a target follows from the unanimous pairs: the kernel on every closed class vector.

A majority signature (``welfare._classes``) gives each pair x < y a class
0..4. Its unanimous pairs U are (x, y) at class 4 and (y, x) at class 0.
A basis profile's U is the pairs every voter's ranking orders the same
way, so it is transitively closed, and acyclic since each pair has one
class. The closed class vectors in {0..4}^C(m,2) therefore hold the
signature of every basis profile at every electorate size: 105 at m=3,
8,691 at m=4 and 2,732,079 at m=5. On each one this file checks:

- the lemma the kernel rests on: every ranking the projection keeps
  covers all C(m,2) pairs, a pair being covered when some voter orients it
  as the ranking does. A kept ranking breaks no unanimous pair, and every
  other pair is oriented both ways by some voter;
- the status claim: a pair's value is exactly 1 if it is in U, exactly 0
  if its reverse is, and otherwise lies in [gamma_m, 1 - gamma_m]. A
  winner's value is exactly 0 if some y has (y, x) in U, exactly 1 if x is
  above every other alternative in U, and otherwise in [gamma_m,
  1 - gamma_m]. gamma_3 = 1/18 and gamma_4 = 1/52 are the margins of
  ``tests/test_universe.py`` (its ``MARGIN``), met on these supersets of
  its signatures. The proof's bound, gamma_m >= m(m-1) delta / m!, holds
  at every m and at every delta the rule accepts: a kept ranking's spread
  alone is C(m,2) delta / (m!/2), and an undecided pair or winner has kept
  rankings on both sides.

The m=5 pass takes about 20 s, so it runs on its own:

    PYTHONPATH=src python tests/test_status.py
"""

import random
from math import comb, factorial

import numpy as np
import pytest

from qsc import AlternativeSet, QcvParams
from qsc.rankings import basis_table
from qsc.welfare import _KERNEL_CELLS, _projected, _qcv_stages

from test_universe import MARGIN
from universe import signatures

COUNTS = {3: 105, 4: 8_691, 5: 2_732_079}
# A 0 is exact in floats (the projection zeroes the weights). A 1 or an undecided value may sit a few
# ulp from its exact rational (3.3e-16 at most at m=4); the bound is the one tests/test_exhaustive.py uses.
TOLERANCE = 1e-12


def alternatives_of(m: int) -> AlternativeSet:
    return AlternativeSet(tuple("abcdef"[:m]))


def unanimous_pairs(alternatives: AlternativeSet, vectors: np.ndarray) -> np.ndarray:
    """U of each class vector (k x C(m,2) -> k x m x m uint8): every voter places x above y."""
    m, (x, y) = alternatives.m, basis_table(alternatives).upper
    unanimous = np.zeros((len(vectors), m, m), dtype=np.uint8)
    unanimous[:, x, y] = vectors == 4
    unanimous[:, y, x] = vectors == 0
    return unanimous


def closed_vectors(alternatives: AlternativeSet, chunk: int = 5**7):
    """Every class vector whose unanimous pairs are transitively closed, in chunks (base-5 order)."""
    pairs = comb(alternatives.m, 2)
    fives = 5 ** np.arange(pairs - 1, -1, -1, dtype=np.int64)
    for start in range(0, 5**pairs, chunk):
        vectors = np.arange(start, min(start + chunk, 5**pairs), dtype=np.int64)[:, None] // fives % 5
        unanimous = unanimous_pairs(alternatives, vectors)
        implied = (unanimous @ unanimous) > 0  # (x, z) with some (x, y) and (y, z) in U
        yield vectors[~(implied & (unanimous == 0)).any(axis=(1, 2))]


def status_pass(alternatives: AlternativeSet, vectors: np.ndarray, gamma: float) -> tuple[int, float]:
    """Check the lemma and the status claim on each class vector; return their count and the smallest inner value.

    Inner values must lie in [gamma, 1 - gamma], within ``TOLERANCE``.
    """
    table = basis_table(alternatives)
    d, m, _ = table.above.shape
    params = QcvParams.for_alternatives(m)
    above = table.above.reshape(d, m * m)
    tops = np.zeros((d, m))
    tops[table.winner_rows.ravel(), np.repeat(np.arange(m), d // m)] = 1.0
    smallest, step = 1.0, _KERNEL_CELLS // d
    for start in range(0, len(vectors), step):
        part = vectors[start : start + step]
        stages = _qcv_stages(alternatives, part, params)
        covered = stages.present.reshape(-1, m * m).astype(np.intp) @ above.T.astype(np.intp)
        assert (covered[stages.keep] == comb(m, 2)).all(), "a kept ranking misses a present pair"
        unanimous, off = unanimous_pairs(alternatives, part).astype(bool), ~np.eye(m, dtype=bool)  # (x, x) is no target
        rows = _projected(stages, params.eps)
        targets = [  # values, where they must be 1, where they must be 0
            ((rows @ above).reshape(-1, m, m)[:, off], unanimous[:, off], unanimous.transpose(0, 2, 1)[:, off]),
            (rows @ tops, unanimous.sum(axis=2) == m - 1, unanimous.any(axis=1)),
        ]
        for value, one, zero in targets:
            assert (np.abs(value[one] - 1.0) <= TOLERANCE).all(), "a unanimous target is not certain"
            assert (value[zero] == 0.0).all(), "a target against a unanimous pair keeps weight"
            inner = value[~one & ~zero]
            if inner.size:
                low = min(float(inner.min()), float(1.0 - inner.max()))
                assert low >= gamma - TOLERANCE, f"an undecided target at {low} from 0 or 1"
                smallest = min(smallest, low)
    return len(vectors), smallest


def proved_bound(m: int) -> float:
    """gamma_m >= m(m-1) delta / m!, at the default delta."""
    return m * (m - 1) * QcvParams.for_alternatives(m).delta / factorial(m)


@pytest.mark.parametrize("m", [3, 4])
def test_every_closed_class_vector(m):
    alternatives = alternatives_of(m)
    vectors = np.concatenate(list(closed_vectors(alternatives)))
    assert len(vectors) == COUNTS[m]
    count, smallest = status_pass(alternatives, vectors, float(MARGIN[m]))
    assert count == COUNTS[m]
    assert smallest == pytest.approx(float(MARGIN[m]), abs=TOLERANCE)
    assert proved_bound(m) <= MARGIN[m]


def test_the_closure_condition_is_needed():
    # (a, b) and (b, c) unanimous keep only a>b>c, so (a, c) is certain though a voter orders it c above a.
    alternatives = alternatives_of(3)
    closed = np.concatenate(list(closed_vectors(alternatives)))
    assert [4, 2, 4] not in closed.tolist()
    with pytest.raises(AssertionError, match="undecided target"):
        status_pass(alternatives, np.array([[4, 2, 4]]), float(MARGIN[3]))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_sampled_basis_profiles_meet_the_proved_bound(m):
    alternatives = alternatives_of(m)
    d, rng = factorial(m), random.Random(m)
    for n in range(1, 7):
        idx = np.array([[rng.randrange(d) for _ in range(n)] for _ in range(40)], dtype=np.intp)
        status_pass(alternatives, signatures(alternatives, idx), proved_bound(m))


if __name__ == "__main__":
    alternatives = alternatives_of(5)
    total, smallest = 0, 1.0
    for vectors in closed_vectors(alternatives):
        count, low = status_pass(alternatives, vectors, proved_bound(5))
        total, smallest = total + count, min(smallest, low)
    print(f"m=5: {total} closed class vectors, smallest inner value {smallest:.7g} (proved bound {proved_bound(5):.7g})")
    raise SystemExit(0 if total == COUNTS[5] else 1)
