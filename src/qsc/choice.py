"""Choice rules: from ranking densities to alternative distributions.

A choice rule is a welfare rule followed by the natural extension, which
credits each basis ranking's weight to its top alternative. ``qcvne`` is
the quantum Condorcet rule followed by it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument
from .hilbert import (
    DEFAULT_EPS,
    AlternativeState,
    DensityOperator,
    ProfileState,
    alternative_state,
    check_eps,
    support_probabilities,
)
from .rankings import basis_table
from .welfare import QcvParams, StatusesHook, WelfareRule, qcv, qcv_rule


@dataclass(frozen=True, eq=False)
class ChoiceRule:
    """Named map from a joint ballot profile to an alternative distribution:
    the welfare rule's output, naturally extended at ``eps``.

    ``eps`` governs ``evaluate`` only. The axiom engine reads a choice rule
    on its welfare output's winner-row weights at the check's own eps
    (``axioms._Targets``), which gives the natural extension's values.
    A ``welfare`` that is not a ``WelfareRule`` is refused, and so is an
    ``eps`` outside [MIN_EPS, MAX_EPS] (``check_eps``).
    """

    name: str
    welfare: WelfareRule
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not isinstance(self.welfare, WelfareRule):
            raise InvalidArgument(
                f"a choice rule extends a welfare rule, got the {type(self.welfare).__name__} "
                f"{getattr(self.welfare, 'name', self.welfare)!r}"
            )
        check_eps(self.eps)

    @property
    def statuses(self) -> StatusesHook | None:
        """The welfare rule's hook, whose ``winners`` are the natural extension's statuses: the extension is
        linear in the basis weights."""
        return self.welfare.statuses

    def evaluate(self, profile: ProfileState) -> AlternativeState:
        return natural_extension(self.welfare.evaluate(profile), self.eps)


def natural_extension(state: DensityOperator, eps: float = DEFAULT_EPS) -> AlternativeState:
    """Send each ranking's weight to its top alternative.

    The winner subspaces (the basis table's Lehmer blocks) partition the
    basis, so the output sums to one and the map is affine in the input
    density.
    """
    alternatives = state.space.alternatives
    values = support_probabilities(state.diagonal, basis_table(alternatives).winner_rows, eps)
    return alternative_state(alternatives, dict(zip(alternatives.names, values.tolist())), eps)


def compose(rule: WelfareRule, eps: float = DEFAULT_EPS) -> ChoiceRule:
    """Choice rule evaluating the welfare rule, then the natural extension."""
    return ChoiceRule(f"natural-extension({rule.name})", rule, eps)


def qcvne(profile: ProfileState, params: QcvParams) -> AlternativeState:
    """Quantum Condorcet rule followed by the natural extension."""
    return natural_extension(qcv(profile, params), params.eps)


def qcvne_rule(params: QcvParams) -> ChoiceRule:
    return ChoiceRule("qcvne", qcv_rule(params), params.eps)
