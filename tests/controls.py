"""Deliberately flawed rules used as positive controls in axiom tests."""

import numpy as np

from qsc import (
    AlternativeSet,
    ChoiceRule,
    DensityOperator,
    Ranking,
    RankingSpace,
    WelfareRule,
    basis_state,
)
from qsc.hilbert import diagonal_state


def reverse_rule() -> WelfareRule:
    """Anti-dictatorship: society gets voter 1's ballot upside down."""

    def evaluate(profile):
        ballot = profile.partial_ballot(1)
        space = ballot.space
        perm = np.array(
            [space.basis_index(r.reversed()) for r in space.rankings()], dtype=np.intp
        )
        moved = np.zeros_like(ballot.matrix)
        moved[np.ix_(perm, perm)] = ballot.matrix
        return DensityOperator.from_matrix(space, moved)

    return WelfareRule("reverse:1", evaluate)


def batch_hook(evaluate, voter_responses):
    """A ``responses`` hook answering each request in turn.

    A profile request reads ``evaluate(profile)``'s basis weights, and a
    voter request ``voter_responses(profile, voter)``'s d x d weights.
    """

    def hook(requests):
        for profile, voter in requests:
            yield evaluate(profile).diagonal if voter is None else voter_responses(profile, voter)

    return hook


def reverse_mix_rule(hooked: bool) -> WelfareRule:
    """Voter 1's ballot upside down mixed half and half with voter 2's ballot.

    Manipulable, and linear in each voter's basis weights. The hooked
    version carries a ``responses`` hook, so the axiom engine searches it at
    the basis ballots only; the unhooked one is searched over the family.
    """

    def evaluate(profile):
        space = profile.space
        flip = [space.basis_index(r.reversed()) for r in space.rankings()]
        first = profile.partial_ballot(1).diagonal[flip]
        return diagonal_state(space, 0.5 * first + 0.5 * profile.partial_ballot(2).diagonal)

    def responses(profile, voter):
        space = profile.space
        return np.array([
            evaluate(profile.substitute_ballot(voter, basis_state(space, r))).diagonal
            for r in space.rankings()
        ])

    hook = batch_hook(evaluate, responses)
    return WelfareRule("reverse-mix", evaluate, responses=hook if hooked else None)


def borda_welfare_rule() -> WelfareRule:
    """Positional-score rule: each support tuple maps to one point-mass ranking.

    Classic independence failures survive the lift to basis profiles, which
    is exactly what the independence checker must be able to catch.
    """

    def evaluate(profile):
        space = profile.space
        alts = space.alternatives
        rankings = space.rankings()
        acc = np.zeros(space.dim, dtype=np.float64)
        for weight, indices in profile.support_tuples():
            totals = {name: 0 for name in alts.names}
            for k in indices:
                for position, label in enumerate(rankings[k].labels):
                    totals[label] += alts.m - 1 - position
            order = sorted(alts.names, key=lambda nm: (-totals[nm], alts.index(nm)))
            winner = Ranking.from_labels(alts, order)
            acc[space.basis_index(winner)] += weight
        return diagonal_state(space, acc)

    return WelfareRule("borda", evaluate)


def constant_choice_rule(alternatives: AlternativeSet, winner: str) -> ChoiceRule:
    """Ignores everyone and elects one fixed alternative."""
    space = RankingSpace(alternatives)
    rest = [name for name in alternatives.names if name != winner]
    society = basis_state(space, Ranking.from_labels(alternatives, [winner, *rest]))
    return ChoiceRule(f"constant:{winner}", WelfareRule(f"constant:{winner}", lambda profile: society))
