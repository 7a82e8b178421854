"""Choice rules: from ranking densities to alternative distributions.

A choice rule is a welfare rule followed by the natural extension, which
credits each basis ranking's weight to its top alternative. ``qcvne`` is
the quantum Condorcet rule followed by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    DEFAULT_EPS,
    AlternativeState,
    DensityOperator,
    ProfileState,
    RankingSpace,
    alternative_state,
    support_probabilities,
    winner_projector,
)
from .welfare import QcvParams, ResponsesHook, WelfareRule, qcv, qcv_rule


@dataclass(frozen=True, eq=False)
class ChoiceRule:
    """Named map from a joint ballot profile to an alternative distribution:
    the welfare rule's output, naturally extended at ``eps``."""

    name: str
    welfare: WelfareRule
    eps: float = DEFAULT_EPS

    @property
    def responses(self) -> ResponsesHook | None:
        """The welfare rule's hook: the natural extension is linear in the basis weights."""
        return self.welfare.responses

    def evaluate(self, profile: ProfileState) -> AlternativeState:
        return natural_extension(self.welfare.evaluate(profile), self.eps)


def natural_extension(state: DensityOperator, eps: float = DEFAULT_EPS) -> AlternativeState:
    """Send each ranking's weight to its top alternative.

    The winner subspaces partition the basis, so the output sums to one
    and the map is affine in the input density.
    """
    alternatives = state.space.alternatives
    values = support_probabilities(state.diagonal, _winner_index(state.space), eps)
    return alternative_state(alternatives, dict(zip(alternatives.names, values.tolist())), eps)


@lru_cache(maxsize=64)
def _winner_index(space: RankingSpace) -> np.ndarray:
    """Row a: the basis indices of the rankings topped by alternative a."""
    return np.stack([winner_projector(space, a).indices for a in space.alternatives.names])


def compose(rule: WelfareRule, eps: float = DEFAULT_EPS) -> ChoiceRule:
    """Choice rule evaluating the welfare rule, then the natural extension."""
    return ChoiceRule(f"natural-extension({rule.name})", rule, eps)


def qcvne(profile: ProfileState, params: QcvParams) -> AlternativeState:
    """Quantum Condorcet rule followed by the natural extension."""
    return natural_extension(qcv(profile, params), params.eps)


def qcvne_rule(params: QcvParams) -> ChoiceRule:
    return ChoiceRule("qcvne", qcv_rule(params), params.eps)
