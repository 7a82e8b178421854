"""Quantum social welfare rules over the ranking space.

The centerpiece is the six-step quantum Condorcet rule: pairwise Condorcet
scores, a weak order, all of its linear extensions as a uniform mixture,
a delta-spread that gives every minority-supported pair a foothold, and a
final projection enforcing unanimously supported pairs. A dictatorship
and a deliberately manipulable veto rule serve as baselines for the axiom
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidArgument
from .hilbert import (
    DEFAULT_EPS,
    DEFAULT_SUPPORT_CAP,
    MAX_EPS,
    DensityOperator,
    ProfileState,
    RankingSpace,
    basis_state,
    diagonal_state,
    mixed_state,
    pair_projector,
    project_and_renormalize,
    support_probability,
)
from .rankings import (
    AlternativeSet,
    ClassicalProfile,
    Ranking,
    WeakOrder,
    all_rankings,
    condorcet_scores,
    linear_extensions,
    ranking_index,
    weak_order_from_scores,
)


def default_delta(m: int) -> float:
    """Spread weight for m alternatives; must stay below 1/m^2."""
    if m == 3:
        return 0.05
    return 1.0 / (2 * m * m)


@dataclass(frozen=True)
class QcvParams:
    """Tunables for the quantum Condorcet rule."""

    delta: float
    eps: float = DEFAULT_EPS
    support_cap: int = DEFAULT_SUPPORT_CAP

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InvalidArgument(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.eps <= MAX_EPS:
            raise InvalidArgument(f"eps must lie in (0, {MAX_EPS}], got {self.eps}")
        if self.support_cap < 1:
            raise InvalidArgument("support cap must be at least 1")

    def check_alternatives(self, m: int) -> None:
        limit = 1.0 / (m * m)
        if self.delta >= limit:
            raise InvalidArgument(
                f"delta {self.delta} must be strictly below 1/{m * m} for {m} alternatives"
            )

    @classmethod
    def for_alternatives(cls, m: int, eps: float = DEFAULT_EPS) -> "QcvParams":
        return cls(delta=default_delta(m), eps=eps)


@dataclass(frozen=True, eq=False)
class WelfareRule:
    """Named map from a joint ballot profile to a societal ranking density.

    ``multilinear`` declares that the output's basis weights are affine in
    each voter's basis weights while the other voters stay fixed, so mixing
    two ballots for one voter mixes the outputs the same way. Weights the
    support filter drops (at most eps) are exempt. The axiom engine then
    searches dishonest ballots through d basis responses (see ``axioms``).
    """

    name: str
    fn: Callable[[ProfileState], DensityOperator]
    multilinear: bool = False

    def evaluate(self, profile: ProfileState) -> DensityOperator:
        return self.fn(profile)


@dataclass(frozen=True, eq=False)
class QcvStages:
    """Intermediate states of one basis-profile Condorcet evaluation."""

    scores: dict[str, int]
    weak_order: WeakOrder
    extensions: tuple[Ranking, ...]
    pairs_any: tuple[tuple[str, str], ...]
    pairs_all: tuple[tuple[str, str], ...]
    sigma1: DensityOperator
    sigma2: DensityOperator
    sigma3: DensityOperator


def encoded_pairs_any(profile: ProfileState, eps: float = DEFAULT_EPS) -> frozenset[tuple[str, str]]:
    """Ordered pairs carrying support in at least one voter's marginal ballot."""
    space = profile.space
    pairs = set()
    for voter in range(1, profile.n_voters + 1):
        ballot = profile.partial_ballot(voter, eps)
        for x, y in space.alternatives.ordered_pairs():
            if support_probability(ballot, pair_projector(space, x, y), eps) > eps:
                pairs.add((x, y))
    return frozenset(pairs)


def encoded_pairs_all(profile: ProfileState, eps: float = DEFAULT_EPS) -> frozenset[tuple[str, str]]:
    """Ordered pairs that every voter's marginal ballot supports with certainty.

    Certainty (trace 1 within eps) rather than bare support is what makes
    the final projection step sound: projecting onto a pair that some
    ballot only partially supports would erase that ballot's dissenting
    weight instead of honoring unanimity.
    """
    space = profile.space
    pairs = set()
    for x, y in space.alternatives.ordered_pairs():
        projector = pair_projector(space, x, y)
        if all(
            support_probability(profile.partial_ballot(v, eps), projector, eps) >= 1.0 - eps
            for v in range(1, profile.n_voters + 1)
        ):
            pairs.add((x, y))
    return frozenset(pairs)


def minority_spread(
    sigma1: DensityOperator,
    pairs: frozenset[tuple[str, str]] | tuple[tuple[str, str], ...],
    delta: float,
) -> DensityOperator:
    """Convex mix of sigma1 with the uniform state of each pair's subspace.

    Output is (1 - k*delta) * sigma1 + delta * sum of the k subspace
    states, so each listed pair retains at least delta weight.
    """
    ordered = sorted(pairs)
    k = len(ordered)
    if k * delta >= 1.0:
        raise InvalidArgument(f"{k} pairs at delta {delta} leave no weight for the base state")
    if sigma1.amplitudes is not None:
        raise InvalidArgument("minority spread needs a diagonal sigma1")
    space = sigma1.space
    spread = np.zeros(space.dim, dtype=np.float64)
    for x, y in ordered:
        projector = pair_projector(space, x, y)
        spread[projector.indices] += delta / len(projector.indices)
    return DensityOperator(space, (1.0 - k * delta) * sigma1.diagonal + spread)


def enforce_unanimity(
    sigma2: DensityOperator,
    pairs: frozenset[tuple[str, str]] | tuple[tuple[str, str], ...],
    eps: float = DEFAULT_EPS,
) -> DensityOperator:
    """Sequentially project onto each pair's subspace and renormalize.

    The projectors are diagonal in the ranking basis, hence commuting; the
    lexicographic application order is fixed only for reproducibility.
    """
    state = sigma2
    for x, y in sorted(pairs):
        state = project_and_renormalize(state, pair_projector(sigma2.space, x, y), eps)
    return state


def qcv_basis(profile: ClassicalProfile, params: QcvParams) -> QcvStages:
    """Run the six Condorcet steps on a basis (classical) profile."""
    alternatives = profile.alternatives
    params.check_alternatives(alternatives.m)
    space = RankingSpace(alternatives)

    scores = condorcet_scores(profile)
    weak_order = weak_order_from_scores(alternatives, scores)
    extensions = tuple(linear_extensions(weak_order))
    sigma1 = mixed_state(space, [(1.0, r) for r in extensions], params.eps)

    pair_sets = [r.oriented_pairs() for r in profile.rankings]
    pairs_any = tuple(sorted(frozenset.union(*pair_sets)))
    pairs_all = tuple(sorted(frozenset.intersection(*pair_sets)))

    sigma2 = minority_spread(sigma1, pairs_any, params.delta)
    # Every pair unanimously oriented keeps at least delta * 2/m! weight
    # after the spread, so the projection mass below is provably positive.
    sigma3 = enforce_unanimity(sigma2, pairs_all, params.eps)
    return QcvStages(
        scores=scores,
        weak_order=weak_order,
        extensions=extensions,
        pairs_any=pairs_any,
        pairs_all=pairs_all,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
    )


@lru_cache(maxsize=65536)
def _qcv_basis_diagonal(names: tuple[str, ...], indices: tuple[int, ...], params: QcvParams) -> np.ndarray:
    alternatives = AlternativeSet(names)
    rankings = all_rankings(alternatives)
    profile = ClassicalProfile(tuple(rankings[k] for k in indices))
    return qcv_basis(profile, params).sigma3.diagonal


def qcv(profile: ProfileState, params: QcvParams) -> DensityOperator:
    """Quantum Condorcet rule on a general profile.

    The profile's diagonal support is decomposed into basis ranking
    tuples; each tuple is scored by the six-step basis rule and the
    results are mixed with the tuple weights. Off-diagonal ballot
    coherences do not enter: the rule consumes basis statistics only.
    """
    space = profile.space
    params.check_alternatives(space.alternatives.m)
    names = space.alternatives.names
    acc = np.zeros(space.dim, dtype=np.float64)
    for weight, indices in profile.support_tuples(params.eps, params.support_cap):
        acc += weight * _qcv_basis_diagonal(names, indices, params)
    return diagonal_state(space, acc, params.eps)


def qcv_rule(params: QcvParams) -> WelfareRule:
    return WelfareRule("qcv", lambda p: qcv(p, params), multilinear=True)


def dictator_rule(voter: int) -> WelfareRule:
    """Welfare rule that returns one voter's marginal ballot verbatim."""
    if voter < 1:
        raise InvalidArgument(f"voter index must be positive, got {voter}")
    return WelfareRule(f"dictator:{voter}", lambda p: p.partial_ballot(voter), multilinear=True)


def veto_rule(pet_ranking: Ranking, eps: float = DEFAULT_EPS) -> WelfareRule:
    """Manipulable control rule.

    If voter 1's ballot is exactly the point mass on ``pet_ranking`` the
    society adopts it; otherwise voter 2's ballot is returned. Lying about
    conviction therefore pays, which is what the axiom engine must detect.
    """
    space = RankingSpace(pet_ranking.alternatives)
    pet_index = ranking_index(pet_ranking)

    def evaluate(profile: ProfileState) -> DensityOperator:
        if profile.n_voters < 2:
            raise InvalidArgument("veto rule needs at least two voters")
        first = profile.partial_ballot(1, eps)
        if float(first.diagonal[pet_index]) >= 1.0 - eps:
            return basis_state(space, pet_ranking, eps)
        return profile.partial_ballot(2, eps)

    return WelfareRule(f"veto:{pet_ranking.to_string()}", evaluate)
