"""The rule's whole output set on basis profiles, pinned against exact rationals.

``universe.reachable`` gives one basis tuple per majority signature for
each electorate size; each tuple is scored through ``qcv``'s own route
(the tally fold, its signature and the kernel row) and compared with the
exact-rational six-step rule of ``oracles``, and with itself under
relabelled alternatives. The exact pass at m=4 (4,539 signatures) takes
longer than the rest of this file together, so it runs on its own:

    PYTHONPATH=src python tests/test_universe.py
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from qsc import AlternativeSet, ProfileState, QcvParams, qcv
from qsc.rankings import all_rankings, ranking_index

from oracles import oracle_sigma3, oracle_support, oracle_top_distribution, ranks_above
from universe import reachable, signatures

M3, M4 = AlternativeSet(("a", "b", "c")), AlternativeSet(("a", "b", "c", "d"))
MAX_N = {3: 20, 4: 7}
DELTA = {3: Fraction(1, 20), 4: Fraction(1, 32)}  # the default deltas, exact as floats
# A kernel row's largest gap from the exact rule over every signature is 6.2e-17
# at m=3 and 5.4e-17 at m=4; the bound is 2^-53 (1.1e-16), half an ulp at 1.
BOUND = Fraction(2) ** -53
# The margin of the exact rows: the smallest distance of a pair or winner value
# from 0 and 1, over the values strictly between.
MARGIN = {3: Fraction(1, 18), 4: Fraction(1, 52)}


@pytest.fixture(scope="module")
def universe():
    return reachable(M3, MAX_N[3])


@pytest.fixture(scope="module")
def universe4():
    return reachable(M4, MAX_N[4])


def distinct(universe: dict) -> list[tuple[int, ...]]:
    """One basis tuple per signature over every electorate size, the smallest size's first."""
    first: dict = {}
    for found in universe.values():
        for signature, indices in found.items():
            first.setdefault(signature, indices)
    return list(first.values())


def scored(alternatives: AlternativeSet, tuples: list) -> np.ndarray:
    """``qcv``'s row for the basis profile of each tuple of ranking indices, at the default delta."""
    rankings, params = all_rankings(alternatives), QcvParams(float(DELTA[alternatives.m]))
    return np.array([qcv(ProfileState.basis([rankings[k] for k in indices]), params).diagonal for indices in tuples])


def exact_pass(alternatives: AlternativeSet, tuples: list) -> tuple[Fraction, Fraction]:
    """The scored rows' largest gap from the exact rule, and the exact rows' margin (see ``MARGIN``)."""
    names, rankings = alternatives.names, all_rankings(alternatives)
    pairs = [(x, y) for x in names for y in names if x != y]
    worst, margin = Fraction(0), Fraction(1)
    for indices, row in zip(tuples, scored(alternatives, tuples), strict=True):
        exact = oracle_sigma3(names, [rankings[k].labels for k in indices], DELTA[alternatives.m])
        worst = max(worst, *(abs(Fraction(float(w)) - exact[r.labels]) for r, w in zip(rankings, row)))
        values = [
            *(oracle_support(exact, lambda p, x=x, y=y: ranks_above(p, x, y)) for x, y in pairs),
            *oracle_top_distribution(exact).values(),
        ]
        margin = min([margin, *(min(v, 1 - v) for v in values if 0 < v < 1)])
    return worst, margin


def test_signature_counts(universe):
    # 44 at odd n, 85 at n=4 and 87 at every even n from 6: 87 in all.
    assert {n: len(found) for n, found in universe.items()} == {
        1: 6, 2: 19, **{n: 44 if n % 2 else 85 if n == 4 else 87 for n in range(3, MAX_N[3] + 1)}
    }
    assert len(distinct(universe)) == 87


def test_signature_counts_m4(universe4):
    assert {n: len(found) for n, found in universe4.items()} == {
        1: 24, 2: 219, 3: 1_136, 4: 4_175, 5: 1_136, 6: 4_539, 7: 1_136,
    }
    assert len(distinct(universe4)) == 4_539


def test_each_tuple_reaches_its_signature(universe):
    for found in universe.values():
        rows = signatures(M3, np.array(list(found.values())))
        assert [tuple(row) for row in rows.tolist()] == list(found)


def test_every_row_matches_the_exact_rule(universe):
    # Every (n, signature) row, not only one per signature.
    worst, margin = exact_pass(M3, [indices for found in universe.values() for indices in found.values()])
    assert 0 < worst <= BOUND, float(worst)
    assert margin == MARGIN[3]


# Every relabelling at m=3; at m=4 a transposition and a 4-cycle, which generate them all.
RELABELLINGS = [*((3, perm) for perm in permutations(range(3))), (4, (1, 0, 2, 3)), (4, (1, 2, 3, 0))]


@pytest.mark.parametrize("m, perm", RELABELLINGS, ids=[f"m{m}-{''.join(map(str, p))}" for m, p in RELABELLINGS])
def test_rows_follow_a_relabelling(universe, universe4, m, perm):
    alternatives, found = (M3, universe) if m == 3 else (M4, universe4)
    tuples = distinct(found)
    image = [ranking_index(r.relabelled(perm)) for r in all_rankings(alternatives)]
    base = scored(alternatives, tuples)
    moved = scored(alternatives, [[image[k] for k in indices] for indices in tuples])
    # Row i of ``moved`` carries base weight k on the relabelled ranking image[k].
    assert np.abs(moved[:, image] - base).max() <= 1e-12


if __name__ == "__main__":
    worst, margin = exact_pass(M4, distinct(reachable(M4, MAX_N[4])))
    print(f"m=4: largest gap {float(worst):.3g} (bound {float(BOUND):.3g}), margin {margin}")
    raise SystemExit(0 if 0 < worst <= BOUND and margin == MARGIN[4] else 1)
