"""The six-step Condorcet rule written out step by step, as the float reference.

``qsc`` computes the rule in one array kernel (``welfare._qcv_stages``), and
``qcv_basis`` reads that kernel's stages. This module keeps the rule in the
order the paper states it: pairwise Condorcet scores, the weak order, a
uniform mixture of its linear extensions, a delta-spread over the pairs some
voter orients, then one projection per unanimously oriented pair. The tests
compare the kernel against it bit for bit where the arithmetic is the same,
and within a few ulp where the kernel renormalizes once instead of once per
pair. It also keeps the pair sets a general profile's marginal ballots
encode, which the rule's support statements are checked against.

Unlike ``oracles``, this module uses the package's own states and
subspaces: it is a second float implementation, not an exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Mapping

import numpy as np

from qsc import (
    DEFAULT_EPS,
    AlternativeSet,
    DensityOperator,
    InvalidArgument,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    Subspace,
    ZeroMassProjection,
    mixed_state,
    pair_projector,
    support_probability,
)
from qsc.hilbert import _unit_vector_state, diagonal_state


@dataclass(frozen=True)
class ClassicalProfile:
    """One strict ranking per voter, all over the same alternatives."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self):
        rankings = tuple(self.rankings)
        object.__setattr__(self, "rankings", rankings)
        if not rankings:
            raise InvalidArgument("a profile needs at least one voter")
        alts = rankings[0].alternatives
        if any(r.alternatives != alts for r in rankings):
            raise InvalidArgument("all rankings must share one alternative set")

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def alternatives(self) -> AlternativeSet:
        return self.rankings[0].alternatives


@dataclass(frozen=True)
class WeakOrder:
    """Ordered partition of alternative indices; earlier tier = strictly preferred."""

    alternatives: AlternativeSet
    tiers: tuple[frozenset[int], ...]

    def __post_init__(self):
        tiers = tuple(frozenset(t) for t in self.tiers)
        object.__setattr__(self, "tiers", tiers)
        seen: set[int] = set()
        for tier in tiers:
            if not tier:
                raise InvalidArgument("weak-order tiers must be nonempty")
            if tier & seen:
                raise InvalidArgument("weak-order tiers must be disjoint")
            seen |= tier
        if seen != set(range(self.alternatives.m)):
            raise InvalidArgument("weak-order tiers must cover every alternative")

    def tier_labels(self) -> list[list[str]]:
        return [sorted(self.alternatives.names[i] for i in tier) for tier in self.tiers]


def oriented_pairs(ranking: Ranking) -> frozenset[tuple[str, str]]:
    """All (x, y) label pairs with x ranked above y."""
    labels = ranking.labels
    return frozenset(
        (labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))
    )


def voters_preferring(profile: ClassicalProfile, x: str, y: str) -> frozenset[int]:
    """1-based indices of the voters ranking x above y."""
    return frozenset(i + 1 for i, r in enumerate(profile.rankings) if r.prefers(x, y))


def condorcet_scores(profile: ClassicalProfile) -> dict[str, int]:
    """Pairwise-victory counts per alternative.

    x scores a point against y whenever at least as many voters rank x
    above y as the reverse, so an exact tie credits both sides.
    Self-comparisons are excluded.
    """
    names = profile.alternatives.names
    wins = {x: 0 for x in names}
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            for_x = len(voters_preferring(profile, x, y))
            for_y = profile.n - for_x
            if for_x >= for_y:
                wins[x] += 1
            if for_y >= for_x:
                wins[y] += 1
    return wins


def weak_order_from_scores(alternatives: AlternativeSet, scores: Mapping[str, int]) -> WeakOrder:
    """Group alternatives into tiers of equal score, best score first."""
    for name in alternatives.names:
        if name not in scores:
            raise InvalidArgument(f"missing score for alternative {name!r}")
    by_score: dict[int, set[int]] = {}
    for name in alternatives.names:
        by_score.setdefault(scores[name], set()).add(alternatives.index(name))
    tiers = tuple(frozenset(by_score[s]) for s in sorted(by_score, reverse=True))
    return WeakOrder(alternatives, tiers)


def linear_extensions(weak_order: WeakOrder) -> list[Ranking]:
    """Every strict ranking obtained by ordering each tier internally.

    Output is lexicographic in basis-index terms; the count is the product
    of the tier-size factorials.
    """
    alts = weak_order.alternatives
    tier_orders = [list(permutations(sorted(tier))) for tier in weak_order.tiers]
    extensions = []
    for combo in product(*tier_orders):
        order: tuple[int, ...] = ()
        for part in combo:
            order += part
        extensions.append(Ranking(alts, order))
    return extensions


def uniform_subspace_state(
    space: RankingSpace, x: str, y: str, eps: float = DEFAULT_EPS
) -> DensityOperator:
    """Maximally mixed state on the x-above-y subspace (weight 2/m! each).

    The spread mixes delta times this state in for each pair;
    ``minority_spread`` adds delta / (m!/2) directly, which rounds once.
    """
    projector = pair_projector(space, x, y)
    diag = np.zeros(space.dim, dtype=np.float64)
    diag[projector.indices] = 1.0 / len(projector.indices)
    return diagonal_state(space, diag, eps)


def project_and_renormalize(
    state: DensityOperator, projector: Subspace, eps: float = DEFAULT_EPS
) -> DensityOperator:
    """P rho P / Tr(P rho); raises if the subspace carries no mass."""
    mass = support_probability(state, projector, eps)
    if mass <= eps:
        raise ZeroMassProjection(
            f"no probability mass on the target subspace (Tr = {mass:.3e})"
        )
    inside = projector.indices
    if state.amplitudes is not None:
        vector = np.zeros(state.space.dim, dtype=np.complex128)
        vector[inside] = state.amplitudes[inside] / math.sqrt(mass)
        return _unit_vector_state(state.space, vector, eps)
    diag = np.zeros(state.space.dim, dtype=np.float64)
    diag[inside] = state.diagonal[inside] / mass
    return DensityOperator(state.space, diag)


def encoded_pairs_any(profile: ProfileState, eps: float = DEFAULT_EPS) -> frozenset[tuple[str, str]]:
    """Ordered pairs carrying support in at least one voter's marginal ballot."""
    space = profile.space
    pairs = set()
    for voter in range(1, profile.n_voters + 1):
        ballot = profile.partial_ballot(voter)
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
            support_probability(profile.partial_ballot(v), projector, eps) >= 1.0 - eps
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


@dataclass(frozen=True, eq=False)
class StepwiseStages:
    """Intermediate states of one stepwise basis-profile Condorcet evaluation."""

    scores: dict[str, int]
    weak_order: WeakOrder
    extensions: tuple[Ranking, ...]
    pairs_any: tuple[tuple[str, str], ...]
    pairs_all: tuple[tuple[str, str], ...]
    sigma1: DensityOperator
    sigma2: DensityOperator
    sigma3: DensityOperator


def stepwise_qcv(profile: ClassicalProfile, params: QcvParams) -> StepwiseStages:
    """Run the six Condorcet steps on a basis (classical) profile."""
    alternatives = profile.alternatives
    params.check_alternatives(alternatives.m)
    space = RankingSpace(alternatives)

    scores = condorcet_scores(profile)
    weak_order = weak_order_from_scores(alternatives, scores)
    extensions = tuple(linear_extensions(weak_order))
    sigma1 = mixed_state(space, [(1.0, r) for r in extensions])

    pair_sets = [oriented_pairs(r) for r in profile.rankings]
    pairs_any = tuple(sorted(frozenset.union(*pair_sets)))
    pairs_all = tuple(sorted(frozenset.intersection(*pair_sets)))

    sigma2 = minority_spread(sigma1, pairs_any, params.delta)
    # Every pair unanimously oriented keeps at least delta * 2/m! weight
    # after the spread, so the projection mass below is provably positive.
    sigma3 = enforce_unanimity(sigma2, pairs_all, params.eps)
    return StepwiseStages(
        scores=scores,
        weak_order=weak_order,
        extensions=extensions,
        pairs_any=pairs_any,
        pairs_all=pairs_all,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
    )
