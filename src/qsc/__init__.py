"""Quantum social choice over ranking Hilbert spaces.

Ranking combinatorics, density-operator ballots, the six-step
quantum Condorcet welfare rule, the natural choice extension, and an
axiom engine that hunts for strategic manipulation, dictatorship,
unanimity and independence failures.
"""

from importlib import import_module as _import_module

from .choice import (
    ChoiceRule,
    compose,
    natural_extension,
    qcvne,
    qcvne_rule,
)
from .errors import InvalidArgument, ParseError, QscError, ResourceLimit, ZeroMassProjection
from .hilbert import (
    DEFAULT_EPS,
    AlternativeState,
    DensityOperator,
    ProfileState,
    RankingSpace,
    Subspace,
    alternative_state,
    basis_state,
    mixed_state,
    pair_projector,
    pure_state,
    support_probabilities,
    support_probability,
    validate_density,
    winner_projector,
)
from .rankings import (
    AlternativeSet,
    Ranking,
    all_rankings,
    ranking_index,
)
from .serde import parse_profile, serialize_alternative_state, serialize_density, serialize_profile
from .welfare import (
    QcvParams,
    QcvStages,
    WelfareRule,
    default_delta,
    dictator_rule,
    qcv,
    qcv_basis,
    qcv_responses,
    qcv_rule,
    veto_rule,
)

# The axiom engine is loaded on first use, so ``import qsc`` and ``qsc evaluate``
# never compile or run it.
_AXIOM_NAMES = frozenset({
    "AxiomReport",
    "CandidateBallotFamily",
    "ManipulationWitness",
    "PreferenceKind",
    "SuiteReport",
    "check_composition_preservation",
    "check_dictatorship",
    "check_iia",
    "check_onto",
    "check_qic",
    "check_unanimity",
    "default_paired_sampler",
    "default_profile_sampler",
    "manipulation_witness",
    "reverify_witness",
    "run_arrow_suite",
    "run_gs_suite",
})

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _AXIOM_NAMES | {"axioms"})


def __getattr__(name: str):
    if name in _AXIOM_NAMES or name == "axioms":
        axioms = _import_module(".axioms", __name__)
        return axioms if name == "axioms" else getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
