"""Choice rules: from ranking densities to alternative distributions.

A choice extension turns a societal ranking density into a distribution
over alternatives; composing one with a welfare rule yields a full choice
rule. The natural extension credits each basis ranking's weight to its
top alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import (
    DEFAULT_EPS,
    AlternativeState,
    DensityOperator,
    ProfileState,
    alternative_state,
    support_probability,
    winner_projector,
)
from .welfare import QcvParams, WelfareRule, qcv, qcv_rule


@dataclass(frozen=True, eq=False)
class ChoiceExtension:
    """Named map from ranking densities to alternative distributions."""

    name: str
    fn: Callable[[DensityOperator], AlternativeState]

    def apply(self, state: DensityOperator) -> AlternativeState:
        return self.fn(state)


@dataclass(frozen=True, eq=False)
class ChoiceRule:
    """Named map from a joint ballot profile to an alternative distribution.

    ``responses``, when set, declares linearity as it does for
    ``WelfareRule``, and gives the d x d basis weights of the ranking density
    whose natural extension is the output, one row per basis ballot
    substituted for the voter, as ``WelfareRule.responses`` does.
    """

    name: str
    fn: Callable[[ProfileState], AlternativeState]
    responses: Callable[[ProfileState, int, float], np.ndarray] | None = None

    def evaluate(self, profile: ProfileState) -> AlternativeState:
        return self.fn(profile)


def natural_extension(state: DensityOperator, eps: float = DEFAULT_EPS) -> AlternativeState:
    """Send each ranking's weight to its top alternative.

    The winner subspaces partition the basis, so the output sums to one
    and the map is affine in the input density.
    """
    alternatives = state.space.alternatives
    probabilities = {
        a: support_probability(state, winner_projector(state.space, a), eps)
        for a in alternatives.names
    }
    return alternative_state(alternatives, probabilities, eps)


NATURAL_EXTENSION = ChoiceExtension("natural-extension", natural_extension)


def compose(extension: ChoiceExtension, rule: WelfareRule) -> ChoiceRule:
    """Choice rule evaluating the welfare rule, then the extension."""
    return ChoiceRule(
        f"{extension.name}({rule.name})",
        lambda profile: extension.apply(rule.evaluate(profile)),
        # The natural extension is linear in the basis weights; other extensions may not be.
        responses=rule.responses if extension is NATURAL_EXTENSION else None,
    )


def qcvne(profile: ProfileState, params: QcvParams) -> AlternativeState:
    """Quantum Condorcet rule followed by the natural extension."""
    return natural_extension(qcv(profile, params), params.eps)


def qcvne_rule(params: QcvParams) -> ChoiceRule:
    return ChoiceRule(
        "qcvne",
        lambda p: qcvne(p, params),
        responses=qcv_rule(params).responses,
    )
