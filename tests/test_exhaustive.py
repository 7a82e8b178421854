"""Exhaustive sweeps of the smallest interesting configurations.

Three alternatives, two or three voters, all 36 and 216 basis profiles:
every claim the sampled checks make probabilistically is asserted here
outright.
"""

from itertools import chain, product

import numpy as np
import pytest

from qsc import (
    CandidateBallotFamily,
    ProfileState,
    QcvParams,
    basis_state,
    manipulation_witness,
    pair_projector,
    qcv,
    qcv_rule,
    qcvne_rule,
    support_probability,
)

from stepwise import encoded_pairs_all, encoded_pairs_any, read_statuses

PARAMS = QcvParams(0.05)
FAMILY = CandidateBallotFamily()


def all_basis_profiles(space, n):
    for rankings in product(space.rankings(), repeat=n):
        yield ProfileState.basis(rankings)


def test_no_welfare_witness_on_any_basis_profile(alts3, space3):
    rule = qcv_rule(PARAMS)
    for profile in chain(all_basis_profiles(space3, 2), all_basis_profiles(space3, 3)):
        for voter in range(1, profile.n_voters + 1):
            for x, y in alts3.ordered_pairs():
                witness = manipulation_witness(rule, profile, voter, (x, y), FAMILY)
                assert witness is None, (profile.factors, voter, (x, y))


def test_no_choice_witness_on_any_basis_profile(alts3, space3):
    rule = qcvne_rule(PARAMS)
    for profile in chain(all_basis_profiles(space3, 2), all_basis_profiles(space3, 3)):
        for voter in range(1, profile.n_voters + 1):
            for a in alts3.names:
                witness = manipulation_witness(rule, profile, voter, a, FAMILY)
                assert witness is None, (profile.factors, voter, a)


def test_support_statements_on_every_basis_profile(alts3, space3):
    for profile in all_basis_profiles(space3, 2):
        society = qcv(profile, PARAMS)
        any_pairs = encoded_pairs_any(profile)
        all_pairs = encoded_pairs_all(profile)
        for pair in alts3.ordered_pairs():
            value = support_probability(society, pair_projector(space3, *pair))
            if pair in all_pairs:
                assert value == pytest.approx(1.0, abs=1e-12)
            else:
                # Only a unanimous pair is certain: any other keeps gamma_3 = 1/18 off 1 (tests/test_status.py).
                assert value <= 1.0 - 1 / 18 + 1e-12
            if pair in any_pairs:
                assert value > 1e-9
            if pair not in any_pairs:
                # Nobody backed it, so the spread never touched it and the
                # reverse pair was unanimous: the projection removed it all.
                assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_responses_match_the_per_basis_loop_on_every_basis_profile(space3, n):
    # The statuses hook's voter rows: the status each weight of the per-basis loop reads as.
    basis = [basis_state(space3, r) for r in space3.rankings()]
    off = ~np.eye(3, dtype=bool)
    hook = qcv_rule(PARAMS).statuses
    for profile in all_basis_profiles(space3, n):
        for voter, got in zip(range(1, n + 1), hook([(profile, voter) for voter in range(1, n + 1)]), strict=True):
            weights = np.array([qcv(profile.substitute_ballot(voter, ballot), PARAMS).diagonal for ballot in basis])
            pairs, winners = read_statuses(space3.alternatives, weights)
            assert (got.pairs[:, off] == pairs[:, off]).all(), (profile.factors, voter)
            assert (got.winners == winners).all(), (profile.factors, voter)
