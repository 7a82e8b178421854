"""Deliberately flawed rules used as positive controls in axiom tests."""

import numpy as np

from qsc import (
    AlternativeSet,
    ChoiceRule,
    DensityOperator,
    Ranking,
    WelfareRule,
    alternative_state,
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
    return ChoiceRule(
        f"constant:{winner}",
        lambda profile: alternative_state(alternatives, {winner: 1.0}),
    )
