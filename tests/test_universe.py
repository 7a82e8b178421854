"""The rule's whole output set on m=3 basis profiles, pinned against exact rationals.

``universe.reachable`` gives one basis tuple per majority signature for
each electorate size; each tuple is scored through ``qcv``'s own route
(the tally fold, its signature and the kernel row) and compared with the
exact-rational six-step rule of ``oracles``.
"""

from fractions import Fraction

import numpy as np
import pytest

from qsc import AlternativeSet, ProfileState, QcvParams, qcv_rule
from qsc.rankings import all_rankings

from oracles import oracle_sigma3
from universe import reachable, signatures

ALTERNATIVES = AlternativeSet(("a", "b", "c"))
MAX_N = 20
# A kernel row's largest gap from the exact rule over every m=3 signature is 6.2e-17;
# the bound is 2^-53 (1.1e-16), half an ulp at 1.
BOUND = Fraction(2) ** -53


@pytest.fixture(scope="module")
def universe():
    return reachable(ALTERNATIVES, MAX_N)


def test_signature_counts(universe):
    # 44 at odd n, 85 at n=4 and 87 at every even n from 6: 87 in all.
    assert {n: len(found) for n, found in universe.items()} == {
        1: 6, 2: 19, **{n: 44 if n % 2 else 85 if n == 4 else 87 for n in range(3, MAX_N + 1)}
    }
    assert len(set().union(*universe.values())) == 87


def test_each_tuple_reaches_its_signature(universe):
    for found in universe.values():
        rows = signatures(ALTERNATIVES, np.array(list(found.values())))
        assert [tuple(row) for row in rows.tolist()] == list(found)


def test_every_row_matches_the_exact_rule(universe):
    rankings = all_rankings(ALTERNATIVES)
    hook = qcv_rule(QcvParams(0.05)).responses
    worst = Fraction(0)
    for found in universe.values():
        profiles = [ProfileState.basis([rankings[k] for k in indices]) for indices in found.values()]
        for indices, row in zip(found.values(), hook([(p, None) for p in profiles], 1e-9), strict=True):
            exact = oracle_sigma3(ALTERNATIVES.names, [rankings[k].labels for k in indices], Fraction(1, 20))
            worst = max(worst, *(abs(Fraction(float(w)) - exact[r.labels]) for r, w in zip(rankings, row)))
    assert 0 < worst <= BOUND, float(worst)
