"""Quantum social choice over ranking Hilbert spaces.

Classical Condorcet combinatorics, density-operator ballots, the six-step
quantum Condorcet welfare rule, the natural choice extension, and an
axiom engine that hunts for strategic manipulation, dictatorship,
unanimity and independence failures.
"""

from .axioms import (
    AxiomReport,
    CandidateBallotFamily,
    ManipulationWitness,
    PreferenceKind,
    SuiteConfig,
    SuiteReport,
    check_composition_preservation,
    check_dictatorship,
    check_iia,
    check_onto,
    check_qic,
    check_unanimity,
    classify_preference,
    default_paired_sampler,
    default_profile_sampler,
    manipulation_witness,
    reverify_witness,
    run_arrow_suite,
    run_gs_suite,
)
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
    density_terms,
    mixed_state,
    pair_projector,
    project_and_renormalize,
    pure_state,
    support_probabilities,
    support_probability,
    uniform_subspace_state,
    validate_density,
    winner_projector,
)
from .rankings import (
    AlternativeSet,
    ClassicalProfile,
    Ranking,
    WeakOrder,
    all_rankings,
    condorcet_scores,
    linear_extensions,
    prefers,
    ranking_from_index,
    ranking_index,
    voters_preferring,
    weak_order_from_scores,
)
from .serde import parse_profile, serialize_alternative_state, serialize_density, serialize_profile
from .welfare import (
    QcvParams,
    QcvStages,
    WelfareRule,
    default_delta,
    dictator_rule,
    encoded_pairs_all,
    encoded_pairs_any,
    enforce_unanimity,
    minority_spread,
    qcv,
    qcv_basis,
    qcv_responses,
    qcv_rule,
    veto_rule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
