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
- the kept-mass bound that lets the projection divide without a check,
  on the vectors a transitive voter allows (``transitive``), which hold
  every basis profile's signature: a unanimous pair (x, y) gives x more
  Condorcet wins than y, so every linear extension of the weak order is
  kept, and a row with unanimous pairs keeps at least its base weight
  1 - |any| delta > 1/m, |any| being its ordered pairs some voter orients.
  Closed vectors outside that set (18 at m=3, 4,152 at m=4) can drop an
  extension, but no profile has their signature. On every vector a row
  with unanimous pairs keeps at most 1 - (C(m,2) - 1) delta, the mass of
  one unanimous pair, so no kept mass exceeds 1. The kernel writes sigma2
  on the kept rankings only;
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


def transitive(alternatives: AlternativeSet, vectors: np.ndarray) -> np.ndarray:
    """Which class vectors a transitive voter allows: (x, y) in U gives class(x, z) >= class(y, z) for every z.

    Every voter placing x above y places x above each z it places y above,
    so every basis profile's signature passes; a closed vector such as
    x >> y, y > z by majority and z > x by majority does not.
    """
    m, (x, y) = alternatives.m, basis_table(alternatives).upper
    classes = np.zeros((len(vectors), m, m), dtype=np.intp)
    classes[:, x, y], classes[:, y, x] = vectors, 4 - vectors
    unanimous = (classes == 4)[:, :, :, None]  # (x, y) in U, for each z
    return ~(unanimous & (classes[:, :, None, :] < classes[:, None, :, :])).any(axis=(1, 2, 3))


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
        # On a signature, every extension is kept, so a constrained row keeps its base weight 1 - |any| delta.
        signature = transitive(alternatives, part)
        kept_all = (stages.keep | ~stages.extension).all(axis=1)
        assert kept_all[signature].all(), "the projection drops an extension of a signature's weak order"
        assert (stages.sigma[~stages.keep] == 0.0).all(), "sigma2 has weight on a dropped ranking"
        kept, constrained = stages.sigma.sum(axis=1), stages.unanimous.any(axis=(1, 2))
        base = 1.0 - stages.present.sum(axis=(1, 2)) * params.delta
        low = signature & constrained & (kept < base)
        assert not low.any(), "a signature's constrained row keeps less than its base weight"
        high = constrained & (kept > 1.0 - (comb(m, 2) - 1) * params.delta + 1e-15)
        assert not high.any(), "a constrained row keeps more than one unanimous pair allows"
        unanimous, off = unanimous_pairs(alternatives, part).astype(bool), ~np.eye(m, dtype=bool)  # (x, x) is no target
        rows = _projected(stages)
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


def test_the_transitivity_condition_is_needed():
    # (a, b) unanimous, c above a and b above c by majority: closed, but no voter ranks so. Every ranking ties
    # on one win, and the projection keeps 3 of the 6 extensions: 3 * (0.75 / 6 + 0.05) < 1 - 5 * 0.05.
    alternatives = alternatives_of(3)
    vectors = np.concatenate(list(closed_vectors(alternatives)))
    assert [4, 1, 3] in vectors.tolist()
    assert (~transitive(alternatives, vectors)).sum() == 18
    assert not transitive(alternatives, np.array([[4, 1, 3]]))[0]
    stages = _qcv_stages(alternatives, np.array([[4, 1, 3]]), QcvParams.for_alternatives(3))
    assert stages.extension.all() and stages.keep.sum() == 3
    assert stages.sigma[stages.keep].sum() == pytest.approx(0.525)


@pytest.mark.parametrize("m", [3, 4])
def test_no_constrained_row_keeps_more_than_it_started_with(m):
    # The projection divides a constrained row by its kept mass without clamping a mass just above 1:
    # on every class vector, closed or not, and at the extreme deltas, none exceeds 1.
    alternatives = alternatives_of(m)
    pairs = comb(m, 2)
    vectors = np.arange(5**pairs, dtype=np.int64)[:, None] // 5 ** np.arange(pairs, dtype=np.int64) % 5
    step = _KERNEL_CELLS // factorial(m)
    for delta in (1e-300, QcvParams.for_alternatives(m).delta, float(np.nextafter(1.0 / (m * m), 0.0))):
        params = QcvParams(delta)
        for start in range(0, len(vectors), step):
            stages = _qcv_stages(alternatives, vectors[start : start + step], params)
            kept = stages.sigma.sum(axis=1)[stages.unanimous.any(axis=(1, 2))]
            assert kept.size and (kept <= 1.0).all()
            assert (kept <= 1.0 - (pairs - 1) * delta + 1e-15).all()


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_sampled_basis_profiles_meet_the_proved_bound(m):
    alternatives = alternatives_of(m)
    d, rng = factorial(m), random.Random(m)
    for n in range(1, 7):
        idx = np.array([[rng.randrange(d) for _ in range(n)] for _ in range(40)], dtype=np.intp)
        vectors = signatures(alternatives, idx)
        assert transitive(alternatives, vectors).all()
        status_pass(alternatives, vectors, proved_bound(m))


if __name__ == "__main__":
    alternatives = alternatives_of(5)
    total, smallest = 0, 1.0
    for vectors in closed_vectors(alternatives):
        count, low = status_pass(alternatives, vectors, proved_bound(5))
        total, smallest = total + count, min(smallest, low)
    print(f"m=5: {total} closed class vectors, smallest inner value {smallest:.7g} (proved bound {proved_bound(5):.7g})")
    raise SystemExit(0 if total == COUNTS[5] else 1)
