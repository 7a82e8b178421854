"""Axiom falsification engine.

Sample-based checks for incentive compatibility, dictatorship, onto,
unanimity and independence of irrelevant alternatives, plus bundled
suites. Verdicts are honest: "holds-on-sample" never claims a proof, and
every reported manipulation witness can be replayed from its record.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Callable

from . import serde
from .choice import ChoiceExtension, ChoiceRule, compose
from .errors import InvalidArgument
from .hilbert import (
    DEFAULT_EPS,
    DensityOperator,
    ProfileState,
    RankingSpace,
    basis_state,
    mixed_state,
    pair_projector,
    pure_state,
    support_probability,
    winner_projector,
)
from .rankings import AlternativeSet, Ranking
from .welfare import WelfareRule

VERDICT_HOLDS = "holds-on-sample"
VERDICT_FALSIFIED = "falsified"
VERDICT_NO_DICTATOR = "falsified-dictatorship"
VERDICT_DICTATOR_CANDIDATE = "dictatorship-candidate"
VERDICT_BYPASS = "bypass-demonstrated"
VERDICT_NOT_BYPASSED = "not-bypassed"


class PreferenceKind(Enum):
    STRONG_POSITIVE = "strong-positive"
    STRONG_NEGATIVE = "strong-negative"
    WEAK = "weak"
    NONE = "none"


class ManipulationClause(Enum):
    STRONG_POSITIVE = "strong-positive"
    STRONG_NEGATIVE = "strong-negative"
    WEAK = "weak"


def classify_value(value: float, eps: float = DEFAULT_EPS) -> PreferenceKind:
    """Classify a subspace probability; at the eps boundary the negative wins."""
    if value <= eps:
        return PreferenceKind.STRONG_NEGATIVE
    if value >= 1.0 - eps:
        return PreferenceKind.STRONG_POSITIVE
    return PreferenceKind.WEAK


def classify_preference(
    ballot: DensityOperator, x: str, y: str, eps: float = DEFAULT_EPS
) -> PreferenceKind:
    """Strongest preference kind of a ballot for ranking x above y.

    A probability-1 ballot is also weakly supporting; the strong kind is
    reported and the weak clause still applies during witness search.
    """
    value = support_probability(ballot, pair_projector(ballot.space, x, y), eps)
    return classify_value(value, eps)


def classify_winner_preference(
    ballot: DensityOperator, alternative: str, eps: float = DEFAULT_EPS
) -> PreferenceKind:
    """Preference kind for one alternative being ranked on top."""
    value = support_probability(ballot, winner_projector(ballot.space, alternative), eps)
    return classify_value(value, eps)


def _applicable_clauses(kind: PreferenceKind, rule_kind: str) -> tuple[ManipulationClause, ...]:
    """Manipulation clauses a voter with this preference could exploit.

    A certain (probability-1) preference also carries weak support, so
    both clauses stay live for it. For choice rules the strong-negative
    pattern is not hunted: zeroing out an alternative the voter gives no
    winning support to moves society toward that voter's honest ballot,
    and the Condorcet rule composed with the natural extension genuinely
    admits it (make one beats-the-hated-option pair unanimous and the
    final projection erases the rest), so counting it would brand every
    such rule manipulable.
    """
    if kind is PreferenceKind.STRONG_POSITIVE:
        return (ManipulationClause.STRONG_POSITIVE, ManipulationClause.WEAK)
    if kind is PreferenceKind.STRONG_NEGATIVE:
        if rule_kind == "choice":
            return ()
        return (ManipulationClause.STRONG_NEGATIVE,)
    if kind is PreferenceKind.WEAK:
        return (ManipulationClause.WEAK,)
    return ()


def _clause_fires(clause: ManipulationClause, society: float, eps: float) -> bool:
    if clause is ManipulationClause.STRONG_POSITIVE:
        return society < 1.0 - eps
    if clause is ManipulationClause.STRONG_NEGATIVE:
        return society > eps
    return society <= eps


def _clause_achieved(clause: ManipulationClause, society: float, eps: float) -> bool:
    if clause is ManipulationClause.STRONG_POSITIVE:
        return society >= 1.0 - eps
    if clause is ManipulationClause.STRONG_NEGATIVE:
        return society <= eps
    return society > eps


@dataclass(frozen=True, eq=False)
class ManipulationWitness:
    """Replayable record of a strategic-manipulation clause firing."""

    rule_name: str
    rule_kind: str  # "welfare" | "choice"
    voter: int
    clause: ManipulationClause
    target: tuple[str, str] | str
    truthful_value: float
    dishonest_value: float
    dishonest_ballot: DensityOperator
    profile: ProfileState

    def to_jsonable(self) -> dict:
        return {
            "kind": "manipulation",
            "rule": self.rule_name,
            "rule_kind": self.rule_kind,
            "voter": self.voter,
            "clause": self.clause.value,
            "target": list(self.target) if isinstance(self.target, tuple) else self.target,
            "truthful_value": self.truthful_value,
            "dishonest_value": self.dishonest_value,
            "dishonest_ballot": serde.serialize_density(self.dishonest_ballot),
            "profile": serde.serialize_profile(self.profile),
        }


class _Targets:
    """Targets a rule is scored on: ordered pairs (welfare) or alternatives (choice).

    Each target is a subspace of the ranking space. A ballot's value on a
    target is its weight in that subspace; society's value is read the same
    way from a welfare rule's output, or from a choice rule's distribution.
    """

    def __init__(
        self,
        rule: WelfareRule | ChoiceRule,
        space: RankingSpace,
        eps: float,
        targets: list | None = None,
    ):
        if isinstance(rule, WelfareRule):
            self.kind = "welfare"
            self.targets = list(space.alternatives.ordered_pairs()) if targets is None else targets
            self._subspaces = {t: pair_projector(space, *t) for t in self.targets}
        elif isinstance(rule, ChoiceRule):
            self.kind = "choice"
            self.targets = list(space.alternatives.names) if targets is None else targets
            self._subspaces = {a: winner_projector(space, a) for a in self.targets}
        else:
            raise InvalidArgument(f"not a welfare or choice rule: {rule!r}")
        self.rule = rule
        self.space = space
        self.eps = eps

    def ballot_values(self, ballot: DensityOperator) -> dict:
        return {
            t: support_probability(ballot, subspace, self.eps)
            for t, subspace in self._subspaces.items()
        }

    def society_values(self, profile: ProfileState) -> dict:
        state = self.rule.evaluate(profile)
        if self.kind == "welfare":
            return self.ballot_values(state)
        return {a: state[a] for a in self.targets}


@dataclass(frozen=True)
class CandidateBallotFamily:
    """Finite, reproducible search space of dishonest ballots."""

    basis: bool = True
    pair_superpositions: bool = True
    triple_superpositions: bool = True
    mixture_grid_step: float = 0.25  # 0 disables grid mixtures
    random_pure: int = 0
    random_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.mixture_grid_step <= 1.0 or self.random_pure < 0:
            raise InvalidArgument(
                "family needs a grid step in [0, 1] and random_pure >= 0, "
                f"got {self.mixture_grid_step} and {self.random_pure}"
            )

    def describe(self) -> dict:
        return {
            "basis": self.basis,
            "pair_superpositions": self.pair_superpositions,
            "triple_superpositions": self.triple_superpositions,
            "mixture_grid_step": self.mixture_grid_step,
            "random_pure": self.random_pure,
            "random_seed": self.random_seed,
        }

    def ballots(self, space: RankingSpace, eps: float = DEFAULT_EPS) -> tuple[DensityOperator, ...]:
        return _family_ballots(self, space, eps)


@lru_cache(maxsize=64)
def _family_ballots(
    family: CandidateBallotFamily, space: RankingSpace, eps: float
) -> tuple[DensityOperator, ...]:
    rankings = space.rankings()
    out: list[DensityOperator] = []
    if family.basis:
        out.extend(basis_state(space, r, eps) for r in rankings)
    if family.pair_superpositions:
        for i, j in combinations(range(space.dim), 2):
            out.append(pure_state(space, [(1.0, rankings[i]), (1.0, rankings[j])], eps))
    if family.triple_superpositions:
        for i, j, k in combinations(range(space.dim), 3):
            out.append(
                pure_state(
                    space, [(1.0, rankings[i]), (1.0, rankings[j]), (1.0, rankings[k])], eps
                )
            )
    if family.mixture_grid_step > 0.0:
        weights = []
        w = family.mixture_grid_step
        while w < 1.0 - 1e-12:
            weights.append(w)
            w += family.mixture_grid_step
        for i, j in combinations(range(space.dim), 2):
            for w in weights:
                out.append(
                    mixed_state(space, [(w, rankings[i]), (1.0 - w, rankings[j])], eps)
                )
    if family.random_pure > 0:
        rng = random.Random(family.random_seed)
        for _ in range(family.random_pure):
            amplitudes = [
                complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(space.dim)
            ]
            out.append(pure_state(space, list(zip(amplitudes, rankings)), eps))
    return tuple(out)


ProfileSampler = Callable[[random.Random], ProfileState]
PairedSampler = Callable[[random.Random], tuple[ProfileState, ProfileState, tuple[str, str]]]

_GRID_WEIGHTS = (0.25, 0.5, 0.75)


def default_profile_sampler(space: RankingSpace, n_voters: int) -> ProfileSampler:
    """Seeded mix of basis profiles, superpositions, mixtures and party lines."""
    if n_voters < 1:
        raise InvalidArgument("need at least one voter")
    rankings = space.rankings()
    dim = space.dim

    def one_ballot(rng: random.Random, style: str) -> DensityOperator:
        if style == "basis" or rng.random() < 0.5:
            return basis_state(space, rankings[rng.randrange(dim)])
        i = rng.randrange(dim)
        j = (i + 1 + rng.randrange(dim - 1)) % dim
        w = rng.choice(_GRID_WEIGHTS)
        if style == "pure":
            terms = [(complex(w) ** 0.5, rankings[i]), (complex(1.0 - w) ** 0.5, rankings[j])]
            return pure_state(space, terms)
        return mixed_state(space, [(w, rankings[i]), (1.0 - w, rankings[j])])

    def sample(rng: random.Random) -> ProfileState:
        roll = rng.random()
        if roll < 0.4:
            return ProfileState.product_of([one_ballot(rng, "basis") for _ in range(n_voters)])
        if roll < 0.6:
            return ProfileState.product_of([one_ballot(rng, "pure") for _ in range(n_voters)])
        if roll < 0.8:
            return ProfileState.product_of([one_ballot(rng, "mixed") for _ in range(n_voters)])
        terms = rng.choice((1, 2, 3))
        picks = rng.sample(range(dim), min(terms, dim))
        raw = [rng.choice((1, 2, 3)) for _ in picks]
        total = sum(raw)
        return ProfileState.correlated(
            space,
            [(raw[t] / total, (rankings[k],) * n_voters) for t, k in enumerate(picks)],
        )

    return sample


def _orientation_bijection(
    space: RankingSpace, pair: tuple[str, str], rng: random.Random
) -> list[int]:
    """Random basis permutation preserving each ranking's x-vs-y orientation."""
    inside = pair_projector(space, *pair).indices.tolist()
    outside = [k for k in range(space.dim) if k not in set(inside)]
    shuffled_in = inside[:]
    shuffled_out = outside[:]
    rng.shuffle(shuffled_in)
    rng.shuffle(shuffled_out)
    perm = [0] * space.dim
    for src, dst in zip(inside, shuffled_in):
        perm[src] = dst
    for src, dst in zip(outside, shuffled_out):
        perm[src] = dst
    return perm


def _permute_profile(profile: ProfileState, perms: list[list[int]]) -> ProfileState:
    space = profile.space
    if profile.factors is not None:
        return ProfileState.product_of(
            [b.permuted(perms[v]) for v, b in enumerate(profile.factors)]
        )
    rankings = space.rankings()
    terms = [
        (w, tuple(rankings[perms[v][space.basis_index(r)]] for v, r in enumerate(rs)))
        for w, rs in profile.joint
    ]
    return ProfileState.correlated(space, terms)


def default_paired_sampler(space: RankingSpace, n_voters: int) -> PairedSampler:
    """Profile pairs agreeing, voter by voter, on a designated pair's trace.

    The twin profile applies an orientation-preserving basis permutation
    per voter, so the per-voter probability of ranking x above y is
    preserved exactly while everything else may move.
    """
    base = default_profile_sampler(space, n_voters)
    pairs = space.alternatives.ordered_pairs()

    def sample(rng: random.Random) -> tuple[ProfileState, ProfileState, tuple[str, str]]:
        profile = base(rng)
        pair = pairs[rng.randrange(len(pairs))]
        perms = [_orientation_bijection(space, pair, rng) for _ in range(n_voters)]
        return profile, _permute_profile(profile, perms), pair

    return sample


@dataclass
class AxiomReport:
    """Outcome of one axiom check; serializes to a canonical JSON report."""

    axiom: str
    rule: str
    verdict: str
    trials: int
    seed: int | None
    witnesses: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_jsonable(self, include_elapsed: bool = False) -> dict:
        data = {
            "axiom": self.axiom,
            "rule": self.rule,
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
            "witnesses": self.witnesses,
            "details": self.details,
        }
        if include_elapsed:
            data["elapsed_ms"] = round(self.elapsed_ms, 3)
        return data

    def to_json(self, include_elapsed: bool = False) -> str:
        # Wall-clock timing is kept out of the canonical bytes so equal
        # seeds and flags give byte-identical reports.
        return json.dumps(self.to_jsonable(include_elapsed), sort_keys=True, indent=2)


@dataclass
class SuiteReport:
    """Bundle of axiom reports with a single bypass verdict."""

    suite: str
    rule: str
    verdict: str
    components: list[dict]
    reports: list[AxiomReport]
    trials: int
    seed: int
    elapsed_ms: float = 0.0

    def to_jsonable(self, include_elapsed: bool = False) -> dict:
        data = {
            "suite": self.suite,
            "rule": self.rule,
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
            "components": self.components,
            "reports": [r.to_jsonable(include_elapsed) for r in self.reports],
        }
        if include_elapsed:
            data["elapsed_ms"] = round(self.elapsed_ms, 3)
        return data

    def to_json(self, include_elapsed: bool = False) -> str:
        return json.dumps(self.to_jsonable(include_elapsed), sort_keys=True, indent=2)


def _witness_from(
    adapter, profile: ProfileState, voter: int, clause: ManipulationClause,
    target, truthful: float, dishonest: float, ballot: DensityOperator,
) -> ManipulationWitness:
    return ManipulationWitness(
        rule_name=adapter.rule.name,
        rule_kind=adapter.kind,
        voter=voter,
        clause=clause,
        target=target,
        truthful_value=truthful,
        dishonest_value=dishonest,
        dishonest_ballot=ballot,
        profile=profile,
    )


def _scan_voter(
    adapter,
    profile: ProfileState,
    voter: int,
    family: CandidateBallotFamily,
    eps: float,
    society: dict | None = None,
) -> ManipulationWitness | None:
    """Search one voter's dishonest ballots for any firing clause.

    Candidate evaluations are shared across targets: society only changes
    with the substituted ballot, not with the pair or alternative under
    scrutiny.
    """
    if society is None:
        society = adapter.society_values(profile)
    ballot_values = adapter.ballot_values(profile.partial_ballot(voter, eps))
    fired: list[tuple[object, ManipulationClause]] = []
    for target in adapter.targets:
        kind = classify_value(ballot_values[target], eps)
        for clause in _applicable_clauses(kind, adapter.kind):
            if _clause_fires(clause, society[target], eps):
                fired.append((target, clause))
    if not fired:
        return None
    for candidate in family.ballots(adapter.space, eps):
        substituted = profile.substitute_ballot(voter, candidate, eps)
        dishonest = adapter.society_values(substituted)
        for target, clause in fired:
            if _clause_achieved(clause, dishonest[target], eps):
                return _witness_from(
                    adapter, profile, voter, clause, target,
                    society[target], dishonest[target], candidate,
                )
    return None


def welfare_manipulation_witness(
    rule: WelfareRule,
    profile: ProfileState,
    voter: int,
    x: str,
    y: str,
    family: CandidateBallotFamily,
    eps: float = DEFAULT_EPS,
) -> ManipulationWitness | None:
    """First dishonest ballot flipping society's status on ranking x above y.

    Absence of a witness means none was found in the family, not a proof.
    """
    adapter = _Targets(rule, profile.space, eps, targets=[(x, y)])
    return _scan_voter(adapter, profile, voter, family, eps)


def choice_manipulation_witness(
    rule: ChoiceRule,
    profile: ProfileState,
    voter: int,
    alternative: str,
    family: CandidateBallotFamily,
    eps: float = DEFAULT_EPS,
) -> ManipulationWitness | None:
    """First dishonest ballot flipping society's status on one alternative winning."""
    adapter = _Targets(rule, profile.space, eps, targets=[alternative])
    return _scan_voter(adapter, profile, voter, family, eps)


def reverify_witness(
    rule: WelfareRule | ChoiceRule, witness: ManipulationWitness, eps: float = DEFAULT_EPS
) -> bool:
    """Replay a witness from scratch and confirm values and inequality pattern."""
    adapter = _Targets(rule, witness.profile.space, eps)
    truthful = adapter.society_values(witness.profile)[witness.target]
    substituted = witness.profile.substitute_ballot(witness.voter, witness.dishonest_ballot, eps)
    dishonest = adapter.society_values(substituted)[witness.target]
    if abs(truthful - witness.truthful_value) > 1e-6 or abs(dishonest - witness.dishonest_value) > 1e-6:
        return False
    return _clause_fires(witness.clause, truthful, eps) and _clause_achieved(
        witness.clause, dishonest, eps
    )


def check_qic(
    rule: WelfareRule | ChoiceRule,
    sampler: ProfileSampler,
    family: CandidateBallotFamily,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Hunt for strategic-manipulation witnesses over sampled profiles."""
    if trials < 1:
        raise InvalidArgument("trials must be at least 1")
    started = time.perf_counter()
    rng = random.Random(seed)
    witnesses: list[dict] = []
    trials_run = 0
    for _ in range(trials):
        profile = sampler(rng)
        trials_run += 1
        adapter = _Targets(rule, profile.space, eps)
        society = adapter.society_values(profile)
        found = None
        for voter in range(1, profile.n_voters + 1):
            found = _scan_voter(adapter, profile, voter, family, eps, society)
            if found is not None:
                break
        if found is not None:
            witnesses.append(found.to_jsonable())
            break
    verdict = VERDICT_FALSIFIED if witnesses else VERDICT_HOLDS
    return AxiomReport(
        axiom="qic",
        rule=rule.name,
        verdict=verdict,
        trials=trials,
        seed=seed,
        witnesses=witnesses,
        details={"trials_run": trials_run, "family": family.describe()},
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _dictatorship_scan(
    adapter,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float,
    axiom: str,
) -> AxiomReport:
    started = time.perf_counter()
    rng = random.Random(seed)
    counterexamples: dict[tuple[int, str], dict] = {}
    n_voters: int | None = None
    trials_run = 0
    for _ in range(trials):
        profile = sampler(rng)
        trials_run += 1
        if n_voters is None:
            n_voters = profile.n_voters
        society = adapter.society_values(profile)
        for voter in range(1, profile.n_voters + 1):
            if all((voter, v) in counterexamples for v in ("sharp", "unsharp")):
                continue
            ballot_values = adapter.ballot_values(profile.partial_ballot(voter, eps))
            for target in adapter.targets:
                tv, sv = ballot_values[target], society[target]
                checks = (
                    ("sharp", tv >= 1.0 - eps, sv >= 1.0 - eps),
                    ("unsharp", tv > eps, sv > eps),
                )
                for variant, voter_holds, society_holds in checks:
                    if voter_holds == society_holds or (voter, variant) in counterexamples:
                        continue
                    counterexamples[(voter, variant)] = {
                        "kind": "dictatorship-counterexample",
                        "variant": variant,
                        "voter": voter,
                        "target": list(target) if isinstance(target, tuple) else target,
                        "direction": (
                            "voter-certain-society-not" if voter_holds else "society-holds-voter-not"
                        ) if variant == "sharp" else (
                            "voter-supports-society-not" if voter_holds else "society-supports-voter-not"
                        ),
                        "voter_value": tv,
                        "society_value": sv,
                        "profile": serde.serialize_profile(profile),
                    }
        if n_voters is not None and len(counterexamples) == 2 * n_voters:
            break
    assert n_voters is not None
    survivors = [
        {"voter": voter, "variant": variant}
        for voter in range(1, n_voters + 1)
        for variant in ("sharp", "unsharp")
        if (voter, variant) not in counterexamples
    ]
    verdict = VERDICT_NO_DICTATOR if not survivors else VERDICT_DICTATOR_CANDIDATE
    ordered = [counterexamples[k] for k in sorted(counterexamples)]
    return AxiomReport(
        axiom=axiom,
        rule=adapter.rule.name,
        verdict=verdict,
        trials=trials,
        seed=seed,
        witnesses=ordered,
        details={"trials_run": trials_run, "survivors": survivors, "voters": n_voters},
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def check_dictatorship_welfare(
    rule: WelfareRule,
    space: RankingSpace,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Eliminate sharp and unsharp dictator candidates by counterexample.

    A voter survives a variant only if no sampled profile broke the
    corresponding equivalence on any pair, in either direction.
    """
    if not isinstance(rule, WelfareRule):
        raise InvalidArgument(f"expected a welfare rule, got {rule!r}")
    return _dictatorship_scan(
        _Targets(rule, space, eps), sampler, trials, seed, eps, "dictatorship-welfare"
    )


def check_dictatorship_choice(
    rule: ChoiceRule,
    space: RankingSpace,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Same elimination over winner subspaces instead of pairs."""
    if not isinstance(rule, ChoiceRule):
        raise InvalidArgument(f"expected a choice rule, got {rule!r}")
    return _dictatorship_scan(
        _Targets(rule, space, eps), sampler, trials, seed, eps, "dictatorship-choice"
    )


def check_onto(
    rule: ChoiceRule,
    alternatives: AlternativeSet,
    n_voters: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Each alternative must win outright on its unanimous basis profile."""
    started = time.perf_counter()
    space = RankingSpace(alternatives)
    failures: list[dict] = []
    reached = 0
    for a in alternatives.names:
        rest = [i for i in range(alternatives.m) if i != alternatives.index(a)]
        ranking = Ranking(alternatives, (alternatives.index(a), *rest))
        profile = ProfileState.product_of([basis_state(space, ranking)] * n_voters)
        value = rule.evaluate(profile)[a]
        if value >= 1.0 - eps:
            reached += 1
        else:
            failures.append(
                {
                    "kind": "onto-failure",
                    "alternative": a,
                    "achieved": value,
                    "profile": serde.serialize_profile(profile),
                }
            )
    verdict = VERDICT_HOLDS if not failures else VERDICT_FALSIFIED
    return AxiomReport(
        axiom="onto",
        rule=rule.name,
        verdict=verdict,
        trials=alternatives.m,
        seed=None,
        witnesses=failures,
        details={"reached": reached, "alternatives": alternatives.m, "voters": n_voters},
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def check_unanimity(
    rule: WelfareRule,
    space: RankingSpace,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Whenever every ballot (fully / at all) supports a pair, society must too."""
    if not isinstance(rule, WelfareRule):
        raise InvalidArgument(f"expected a welfare rule, got {rule!r}")
    started = time.perf_counter()
    rng = random.Random(seed)
    violations: list[dict] = []
    fired = {"sharp": 0, "unsharp": 0}
    bad = {"sharp": 0, "unsharp": 0}
    pairs = space.alternatives.ordered_pairs()
    for _ in range(trials):
        profile = sampler(rng)
        society = rule.evaluate(profile)
        marginals = [profile.partial_ballot(v, eps) for v in range(1, profile.n_voters + 1)]
        for x, y in pairs:
            projector = pair_projector(space, x, y)
            values = [support_probability(b, projector, eps) for b in marginals]
            society_value = support_probability(society, projector, eps)
            for variant, hypothesis, conclusion in (
                ("sharp", all(v >= 1.0 - eps for v in values), society_value >= 1.0 - eps),
                ("unsharp", all(v > eps for v in values), society_value > eps),
            ):
                if not hypothesis:
                    continue
                fired[variant] += 1
                if not conclusion:
                    bad[variant] += 1
                    violations.append(
                        {
                            "kind": "unanimity-violation",
                            "variant": variant,
                            "target": [x, y],
                            "ballot_values": values,
                            "society_value": society_value,
                            "profile": serde.serialize_profile(profile),
                        }
                    )
    verdict = VERDICT_FALSIFIED if violations else VERDICT_HOLDS
    return AxiomReport(
        axiom="unanimity",
        rule=rule.name,
        verdict=verdict,
        trials=trials,
        seed=seed,
        witnesses=violations,
        details={
            "sharp": {"instances": fired["sharp"], "violations": bad["sharp"]},
            "unsharp": {"instances": fired["unsharp"], "violations": bad["unsharp"]},
        },
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def check_iia(
    rule: WelfareRule,
    space: RankingSpace,
    paired_sampler: PairedSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Society's certainty / support status on a pair must transfer between
    profiles whose voters agree, trace for trace, on that pair."""
    if not isinstance(rule, WelfareRule):
        raise InvalidArgument(f"expected a welfare rule, got {rule!r}")
    started = time.perf_counter()
    rng = random.Random(seed)
    violations: list[dict] = []
    fired = {"sharp": 0, "unsharp": 0}
    for _ in range(trials):
        profile, twin, pair = paired_sampler(rng)
        projector = pair_projector(space, *pair)
        for voter in range(1, profile.n_voters + 1):
            mine = support_probability(profile.partial_ballot(voter, eps), projector, eps)
            theirs = support_probability(twin.partial_ballot(voter, eps), projector, eps)
            if abs(mine - theirs) > 1e-9:
                raise InvalidArgument(
                    f"paired sampler broke its contract: voter {voter} disagrees on "
                    f"{pair} ({mine} vs {theirs})"
                )
        value = support_probability(rule.evaluate(profile), projector, eps)
        twin_value = support_probability(rule.evaluate(twin), projector, eps)
        for variant, status, twin_status in (
            ("sharp", value >= 1.0 - eps, twin_value >= 1.0 - eps),
            ("unsharp", value > eps, twin_value > eps),
        ):
            if status or twin_status:
                fired[variant] += 1
            if status != twin_status:
                violations.append(
                    {
                        "kind": "iia-violation",
                        "variant": variant,
                        "target": list(pair),
                        "society_value": value,
                        "twin_society_value": twin_value,
                        "profile": serde.serialize_profile(profile),
                        "twin_profile": serde.serialize_profile(twin),
                    }
                )
    verdict = VERDICT_FALSIFIED if violations else VERDICT_HOLDS
    return AxiomReport(
        axiom="iia",
        rule=rule.name,
        verdict=verdict,
        trials=trials,
        seed=seed,
        witnesses=violations,
        details={
            "sharp": {"instances": fired["sharp"]},
            "unsharp": {"instances": fired["unsharp"]},
            "violations": len(violations),
        },
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def check_composition_preservation(
    rule: WelfareRule,
    extension: ChoiceExtension,
    sampler: ProfileSampler,
    family: CandidateBallotFamily,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Manipulability must not appear under the extension out of nowhere.

    For each sampled (profile, voter): if no welfare witness exists on any
    pair, no choice witness may exist on any alternative for the composed
    rule.
    """
    started = time.perf_counter()
    rng = random.Random(seed)
    composed = compose(extension, rule)
    violations: list[dict] = []
    welfare_hits = 0
    choice_hits = 0
    for _ in range(trials):
        profile = sampler(rng)
        welfare_adapter = _Targets(rule, profile.space, eps)
        choice_adapter = _Targets(composed, profile.space, eps)
        welfare_society = welfare_adapter.society_values(profile)
        choice_society = choice_adapter.society_values(profile)
        for voter in range(1, profile.n_voters + 1):
            w_witness = _scan_voter(welfare_adapter, profile, voter, family, eps, welfare_society)
            c_witness = _scan_voter(choice_adapter, profile, voter, family, eps, choice_society)
            welfare_hits += w_witness is not None
            choice_hits += c_witness is not None
            if w_witness is None and c_witness is not None:
                violations.append(
                    {
                        "kind": "composition-violation",
                        "voter": voter,
                        "choice_witness": c_witness.to_jsonable(),
                        "profile": serde.serialize_profile(profile),
                    }
                )
    verdict = VERDICT_FALSIFIED if violations else VERDICT_HOLDS
    return AxiomReport(
        axiom="composition-preservation",
        rule=f"{composed.name}",
        verdict=verdict,
        trials=trials,
        seed=seed,
        witnesses=violations,
        details={
            "welfare_witnesses": welfare_hits,
            "choice_witnesses": choice_hits,
            "family": family.describe(),
        },
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


@dataclass(frozen=True)
class SuiteConfig:
    """Shared configuration for the bundled axiom suites."""

    alternatives: AlternativeSet
    n_voters: int = 3
    trials: int = 200
    seed: int = 0
    eps: float = DEFAULT_EPS
    family: CandidateBallotFamily = CandidateBallotFamily()

    def __post_init__(self):
        if self.alternatives.m < 3:
            raise InvalidArgument("suites need at least 3 alternatives")
        if self.n_voters < 1 or self.trials < 1:
            raise InvalidArgument("need at least one voter and one trial")


def run_arrow_suite(rule: WelfareRule, config: SuiteConfig) -> SuiteReport:
    """Unanimity, independence and non-dictatorship, bundled."""
    started = time.perf_counter()
    space = RankingSpace(config.alternatives)
    sampler = default_profile_sampler(space, config.n_voters)
    paired = default_paired_sampler(space, config.n_voters)
    unanimity = check_unanimity(rule, space, sampler, config.trials, config.seed, config.eps)
    iia = check_iia(rule, space, paired, config.trials, config.seed + 1, config.eps)
    dictatorship = check_dictatorship_welfare(
        rule, space, default_profile_sampler(space, config.n_voters),
        config.trials, config.seed + 2, config.eps,
    )
    components = [
        {
            "name": "unanimity-sharp",
            "ok": unanimity.details["sharp"]["violations"] == 0,
            "verdict": VERDICT_HOLDS if unanimity.details["sharp"]["violations"] == 0 else VERDICT_FALSIFIED,
        },
        {
            "name": "unanimity-unsharp",
            "ok": unanimity.details["unsharp"]["violations"] == 0,
            "verdict": VERDICT_HOLDS if unanimity.details["unsharp"]["violations"] == 0 else VERDICT_FALSIFIED,
        },
        {
            "name": "iia-sharp",
            "ok": not any(w["variant"] == "sharp" for w in iia.witnesses),
            "verdict": VERDICT_HOLDS if not any(w["variant"] == "sharp" for w in iia.witnesses) else VERDICT_FALSIFIED,
        },
        {
            "name": "iia-unsharp",
            "ok": not any(w["variant"] == "unsharp" for w in iia.witnesses),
            "verdict": VERDICT_HOLDS if not any(w["variant"] == "unsharp" for w in iia.witnesses) else VERDICT_FALSIFIED,
        },
        {
            "name": "non-dictatorship",
            "ok": dictatorship.verdict == VERDICT_NO_DICTATOR,
            "verdict": dictatorship.verdict,
        },
    ]
    verdict = VERDICT_BYPASS if all(c["ok"] for c in components) else VERDICT_NOT_BYPASSED
    return SuiteReport(
        suite="arrow-suite",
        rule=rule.name,
        verdict=verdict,
        components=components,
        reports=[unanimity, iia, dictatorship],
        trials=config.trials,
        seed=config.seed,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def run_gs_suite(rule: ChoiceRule, config: SuiteConfig) -> SuiteReport:
    """Incentive compatibility, onto and non-dictatorship, bundled."""
    started = time.perf_counter()
    space = RankingSpace(config.alternatives)
    qic = check_qic(
        rule,
        default_profile_sampler(space, config.n_voters),
        config.family,
        config.trials,
        config.seed,
        config.eps,
    )
    onto = check_onto(rule, config.alternatives, config.n_voters, config.eps)
    dictatorship = check_dictatorship_choice(
        rule, space, default_profile_sampler(space, config.n_voters),
        config.trials, config.seed + 1, config.eps,
    )
    components = [
        {"name": "qic", "ok": qic.verdict == VERDICT_HOLDS, "verdict": qic.verdict},
        {"name": "onto", "ok": onto.verdict == VERDICT_HOLDS, "verdict": onto.verdict},
        {
            "name": "non-dictatorship",
            "ok": dictatorship.verdict == VERDICT_NO_DICTATOR,
            "verdict": dictatorship.verdict,
        },
    ]
    verdict = VERDICT_BYPASS if all(c["ok"] for c in components) else VERDICT_NOT_BYPASSED
    return SuiteReport(
        suite="gs-suite",
        rule=rule.name,
        verdict=verdict,
        components=components,
        reports=[qic, onto, dictatorship],
        trials=config.trials,
        seed=config.seed,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )
