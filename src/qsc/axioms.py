"""Axiom falsification engine.

Sample-based checks for incentive compatibility, dictatorship, onto,
unanimity and independence of irrelevant alternatives, plus bundled
suites. Verdicts are honest: "holds-on-sample" never claims a proof, and
every reported manipulation witness can be replayed from its record.
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections.abc import Sequence
from dataclasses import InitVar, asdict, dataclass, field, fields
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations, islice, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from . import serde
from .choice import ChoiceRule, compose
from .errors import InvalidArgument, QscError, ResourceLimit
from .hilbert import (
    DEFAULT_EPS,
    DensityOperator,
    ProfileState,
    RankingSpace,
    basis_state,
    check_eps,
    diagonal_state,
    mixed_state,
    pure_state,
    support_probabilities,
)
from .rankings import AlternativeSet, basis_table
from .welfare import WelfareRule

VERDICT_HOLDS = "holds-on-sample"
VERDICT_FALSIFIED = "falsified"
VERDICT_NO_DICTATOR = "falsified-dictatorship"
VERDICT_DICTATOR_CANDIDATE = "dictatorship-candidate"
VERDICT_BYPASS = "bypass-demonstrated"
VERDICT_NOT_BYPASSED = "not-bypassed"

# Expected verdict per (rule family, axiom) of the rules the CLI names; a
# mismatch exits 1 so CI runs catch both regressions of known-good rules and a
# search engine too weak to flag the manipulable control.
EXPECTED_VERDICTS = {
    ("qcv", "qic"): VERDICT_HOLDS,
    ("qcv", "unanimity"): VERDICT_HOLDS,
    ("qcv", "iia"): VERDICT_HOLDS,
    ("qcv", "dictatorship"): VERDICT_NO_DICTATOR,
    ("qcv", "onto"): VERDICT_HOLDS,
    ("qcv", "arrow-suite"): VERDICT_BYPASS,
    ("qcv", "gs-suite"): VERDICT_BYPASS,
    ("qcvne", "qic"): VERDICT_HOLDS,
    ("qcvne", "onto"): VERDICT_HOLDS,
    ("qcvne", "dictatorship"): VERDICT_NO_DICTATOR,
    ("qcvne", "gs-suite"): VERDICT_BYPASS,
    ("dictator", "qic"): VERDICT_HOLDS,
    ("dictator", "unanimity"): VERDICT_HOLDS,
    ("dictator", "iia"): VERDICT_HOLDS,
    ("dictator", "dictatorship"): VERDICT_DICTATOR_CANDIDATE,
    ("dictator", "onto"): VERDICT_HOLDS,
    ("dictator", "arrow-suite"): VERDICT_NOT_BYPASSED,
    ("dictator", "gs-suite"): VERDICT_NOT_BYPASSED,
    ("veto", "qic"): VERDICT_FALSIFIED,
}

FAMILY_CAP = 100_000  # ballots; the m=4 default family has 3,152, the m=5 one 309,520
# Basis weights (ballots x m!) a family may hold once every ballot is read: each
# is 8 bytes in its ballot's diagonal, plus 16 in the amplitudes of a pure
# ballot (a superposition or a random one). m=5 basis,sup2 holds 871,200.
FAMILY_WEIGHT_CAP = 4_000_000
# Vertex values this close to a clause threshold are re-checked exactly; the
# hook's and the rule's sums differ only by rounding, far below this.
_VERTEX_MARGIN = 1e-11
# The most draws a hunt, and each batched check, scores together (with one hook call when the rule has a hook).
_BATCH_DRAWS = 64
# Records list every nonzero weight and amplitude: dropping those at most the
# default eps would lose weights a check at a smaller eps read.
_RECORD_EPS = 0.0


def _record(kind: str, profile: ProfileState, **fields) -> dict:
    """One record of a report's witnesses: its kind, its fields, and its profile with every nonzero weight.

    A pair ``target`` is written as a list.
    """
    if isinstance(fields.get("target"), tuple):
        fields["target"] = list(fields["target"])
    return {"kind": kind, **fields, "profile": serde.serialize_profile(profile, _RECORD_EPS)}


class PreferenceKind(Enum):
    """How a value on a target reads: certain, excluded or supported.

    The same three readings serve ballots and society, the truthfulness
    clauses of the manipulation search and the sharp and unsharp variants
    of the Arrow axioms.
    """

    STRONG_POSITIVE = "strong-positive"
    STRONG_NEGATIVE = "strong-negative"
    WEAK = "weak"

    def holds(self, value, eps: float = DEFAULT_EPS):
        """Whether a value reads as this kind, elementwise for a numpy array.

        Certain (strong-positive) is at least 1 - eps, excluded
        (strong-negative) at most eps, and supported (weak) above eps, so a
        certain value is also supported.
        """
        if self is PreferenceKind.STRONG_POSITIVE:
            return value >= 1.0 - eps
        if self is PreferenceKind.STRONG_NEGATIVE:
            return value <= eps
        return value > eps


# The sharp variant of an Arrow axiom reads certainty, the unsharp one support.
_VARIANTS = (("sharp", PreferenceKind.STRONG_POSITIVE), ("unsharp", PreferenceKind.WEAK))
# How a dictatorship counterexample breaks its variant, by whether the voter's value holds
# the variant (True) or society's does (False).
_DIRECTIONS = {
    "sharp": {True: "voter-certain-society-not", False: "society-holds-voter-not"},
    "unsharp": {True: "voter-supports-society-not", False: "society-supports-voter-not"},
}


def classify_value(value: float, eps: float = DEFAULT_EPS) -> PreferenceKind:
    """Classify a subspace probability; at the eps boundary the negative wins."""
    if PreferenceKind.STRONG_NEGATIVE.holds(value, eps):
        return PreferenceKind.STRONG_NEGATIVE
    if PreferenceKind.STRONG_POSITIVE.holds(value, eps):
        return PreferenceKind.STRONG_POSITIVE
    return PreferenceKind.WEAK


@dataclass(frozen=True, eq=False)
class ManipulationWitness:
    """Replayable record of a strategic-manipulation clause firing."""

    rule_name: str
    rule_kind: str  # "welfare" | "choice"
    voter: int
    clause: PreferenceKind
    target: tuple[str, str] | str
    truthful_value: float
    dishonest_value: float
    dishonest_ballot: DensityOperator
    profile: ProfileState

    def to_jsonable(self) -> dict:
        return _record(
            "manipulation",
            self.profile,
            rule=self.rule_name,
            rule_kind=self.rule_kind,
            voter=self.voter,
            clause=self.clause.value,
            target=self.target,
            truthful_value=self.truthful_value,
            dishonest_value=self.dishonest_value,
            dishonest_ballot=serde.serialize_density(self.dishonest_ballot, _RECORD_EPS),
        )


def _rule_kind(rule: WelfareRule | ChoiceRule, expected: str | None = None) -> str:
    """The rule's kind, "welfare" or "choice"; any other kind than ``expected``, when given, is refused."""
    if not isinstance(rule, (WelfareRule, ChoiceRule)):
        raise InvalidArgument(f"not a welfare or choice rule: {rule!r}")
    kind = "welfare" if isinstance(rule, WelfareRule) else "choice"
    if expected not in (None, kind):
        raise InvalidArgument(f"expected a {expected} rule, got the {kind} rule {rule.name!r}")
    return kind


class _Targets:
    """Targets a rule is scored on: ordered pairs (welfare) or alternatives (choice).

    Each target is a subspace of the ranking space: a pair's rankings, or
    the rankings an alternative tops. Every value is read one way
    (``values``): the basis weight of a state inside each target's
    subspace. A ballot is read from its own weights, and society from the
    weights of the welfare rule's output, so a choice rule's value on an
    alternative is the natural extension's, at the adapter's eps.
    A rule of any other kind than ``kind``, when given, is refused, and so
    is an eps outside [MIN_EPS, MAX_EPS]. A target is looked up by
    ``position``, which refuses anything not in ``targets``.
    """

    def __init__(self, rule: WelfareRule | ChoiceRule, space: RankingSpace, eps: float, kind: str | None = None):
        check_eps(eps)
        self.kind = _rule_kind(rule, kind)
        pairs = self.kind == "welfare"
        # The manipulation clauses hunted (``_fired``), in enum order. A choice
        # rule's strong-negative clause is not: zeroing out an alternative the
        # voter gives no winning support to moves society toward that voter's
        # honest ballot, and the Condorcet rule composed with the natural
        # extension genuinely admits it (make one beats-the-hated-option pair
        # unanimous and the final projection erases the rest), so counting it
        # would brand every such rule manipulable.
        self.clauses = tuple(PreferenceKind) if pairs else (PreferenceKind.STRONG_POSITIVE, PreferenceKind.WEAK)
        self.targets = space.alternatives.ordered_pairs() if pairs else list(space.alternatives.names)
        # Row j: the basis indices of target j's subspace (all of one size).
        table, at = basis_table(space.alternatives), space.alternatives.index
        self._index = np.stack([
            table.pair_rows[at(t[0]), at(t[1])] if pairs else table.winner_rows[at(t)]
            for t in self.targets
        ])
        # Column j: target j's 0/1 membership over the basis (``vertex_values``).
        self._member = np.zeros((space.dim, len(self.targets)))
        self._member[self._index.T, np.arange(len(self.targets))] = 1.0
        self.rule = rule
        self.welfare = rule if pairs else rule.welfare
        self.space = space
        self.eps = eps

    def position(self, target: tuple[str, str] | str) -> int:
        """The position of a target in ``targets``; anything else is refused."""
        if target not in self.targets:
            wanted = "an ordered pair of distinct" if self.kind == "welfare" else "one of the"
            names = ", ".join(self.space.alternatives.names)
            raise InvalidArgument(f"a {self.kind} rule's target must be {wanted} alternatives {names}, got {target!r}")
        return self.targets.index(target)

    def values(self, weights: np.ndarray) -> list[float]:
        """Each target's value on a state's basis weights, in target order: their sum inside its subspace."""
        return support_probabilities(weights, self._index, self.eps).tolist()

    def voter_values(self, profile: ProfileState, voter: int) -> list[float]:
        """A voter's values: those of the basis weights of the voter's marginal ballot."""
        return self.values(profile.partial_ballot(voter).diagonal)

    def _evaluated(self, profile: ProfileState) -> np.ndarray:
        """The basis weights of the welfare rule's exact output, refused unless a distribution within eps."""
        return diagonal_state(self.space, self.welfare.evaluate(profile).diagonal, self.eps).diagonal

    def welfare_weights(self, profiles: list[ProfileState]) -> Iterable[np.ndarray]:
        """The basis weights of the rule's welfare output on each profile, in order.

        A rule with a ``responses`` hook scores every profile in one hook call;
        any other rule's welfare rule evaluates each profile as it is read.
        A profile on another ranking space than the adapter's is refused
        first, before any value of any profile is read.
        """
        for profile in profiles:
            if profile.space != self.space:
                raise InvalidArgument(
                    f"a profile on alternatives {profile.space.alternatives.names} is not on the "
                    f"check's alternatives {self.space.alternatives.names}"
                )
        if self.rule.responses is None:
            return map(self._evaluated, profiles)
        return self.rule.responses([(p, None) for p in profiles])

    def society_values(self, profile: ProfileState) -> list[float]:
        """Society's values on one profile, from an exact evaluation of the welfare rule."""
        return self.values(self._evaluated(profile))

    def society_batch(self, profiles: list[ProfileState]) -> Iterator[list[float]]:
        """Society's values on each profile, in order, computed as they are read (``welfare_weights``)."""
        return map(self.values, self.welfare_weights(profiles))

    def vertex_values(self, responses: np.ndarray, positions: list[int]) -> np.ndarray:
        """Society's value on each target at ``positions`` with a voter's ballot replaced by each basis ballot.

        ``responses`` is the hook's d x d result for the voter. Row k of the
        d x len(positions) result holds the values with basis ballot k: each
        target sums the response weights inside its subspace, one product
        with those targets' columns of the membership.
        """
        return responses @ self._member[:, positions]


def _batches(draws: Iterator, first: int | None = None) -> Iterator[list]:
    """The draws in batches, for every rule: one hook call scores a hooked rule's batch.

    Batches hold ``_BATCH_DRAWS`` draws, or, given a ``first`` size, start
    there and double up to ``_BATCH_DRAWS``. A check that stops early starts
    small, so it scores at most twice the draws it reads in O(log) hook
    calls; a check that reads every draw while its rule holds (a hunt,
    unanimity, IIA) takes full batches. A hook bounds the memory of its
    scoring (``welfare._scored``); a batch's size sets how many drawn
    profiles are held at once and how many draws past a stop may be scored
    and dropped.
    """
    cap = _BATCH_DRAWS  # read per call, so a patched value takes effect
    size = cap if first is None else min(first, cap)
    for draw in draws:
        yield [draw, *islice(draws, size - 1)]
        size = min(2 * size, cap)


def _societies(
    adapter: _Targets, draws: Iterator[ProfileState], first: int | None = None
) -> Iterator[tuple[ProfileState, list[float]]]:
    """Each drawn profile with society's values on it, a batch at a time (``_batches`` from ``first``)."""
    for batch in _batches(draws, first):
        yield from zip(batch, adapter.society_batch(batch))


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
        if not (
            self.basis or self.pair_superpositions or self.triple_superpositions
            or self.mixture_grid_step > 0.0 or self.random_pure > 0
        ):
            raise InvalidArgument("family needs at least one of basis, sup2, sup3, grid, random")

    def describe(self) -> dict:
        return asdict(self)

    def size(self, space: RankingSpace) -> int:
        """Number of ballots ``ballots`` returns, computed without building any."""
        d = space.dim
        pairs = math.comb(d, 2)
        return (
            self.basis * d
            + self.pair_superpositions * pairs
            + self.triple_superpositions * math.comb(d, 3)
            + _grid_weight_count(self.mixture_grid_step) * pairs
            + self.random_pure
        )

    def check_size(self, space: RankingSpace) -> None:
        """Refuse, without building anything, a family that is empty or over a cap."""
        size = self.size(space)
        if size == 0:
            raise InvalidArgument(f"family has no ballots for {space.alternatives.m} alternatives")
        if size > FAMILY_CAP:
            raise ResourceLimit(f"family of {size} ballots exceeds the cap of {FAMILY_CAP}")
        if size * space.dim > FAMILY_WEIGHT_CAP:
            raise ResourceLimit(
                f"family of {size} ballots over {space.dim} rankings holds {size * space.dim} "
                f"basis weights, above the cap of {FAMILY_WEIGHT_CAP}"
            )

    def ballots(self, space: RankingSpace, eps: float = DEFAULT_EPS) -> Sequence[DensityOperator]:
        """The ballots in family order, one memoised sequence per (family, space, eps).

        The caps are checked first. No ballot is built until it is read.
        """
        self.check_size(space)
        return _family_ballots(self, space, eps)


def _grid_weight_count(step: float) -> int:
    """Number of grid weights step, 2*step, ... kept below 1 (0 when the grid is off)."""
    if step == 0.0:
        return 0
    quotient = (1.0 - 1e-12) / step
    return math.ceil(quotient) - 1 if math.isfinite(quotient) else sys.maxsize


def per_ballot_family(
    family: CandidateBallotFamily, space: RankingSpace, eps: float = DEFAULT_EPS
) -> Iterator[DensityOperator]:
    """The family's ballots in family order, each built when it is reached.

    Basis ballots come from ``basis_state``, superpositions from ``pure_state``
    with unit terms, grid mixtures from ``mixed_state`` with running-sum
    weights (witness reports print these weights bit for bit), and random
    pure ballots from ``pure_state`` on the family's seeded RNG.
    """
    rankings = space.rankings()
    if family.basis:
        for ranking in rankings:
            yield basis_state(space, ranking)
    for k, on in ((2, family.pair_superpositions), (3, family.triple_superpositions)):
        if on:
            for chosen in combinations(range(space.dim), k):
                yield pure_state(space, [(1.0, rankings[i]) for i in chosen], eps)
    step = family.mixture_grid_step
    weights = list(accumulate(repeat(step, _grid_weight_count(step))))
    if weights:
        for i, j in combinations(range(space.dim), 2):
            for w in weights:
                yield mixed_state(space, [(w, rankings[i]), (1.0 - w, rankings[j])])
    rng = random.Random(family.random_seed)
    for _ in range(family.random_pure):
        amplitudes = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in rankings]
        yield pure_state(space, list(zip(amplitudes, rankings)), eps)


class _FamilyBallots(Sequence):
    """A family's ballots over one space, in family order, each built on its first read."""

    def __init__(self, family: CandidateBallotFamily, space: RankingSpace, eps: float):
        self._size = family.size(space)
        self._built: list[DensityOperator] = []
        self._unbuilt = per_ballot_family(family, space, eps)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(self._size)[k]]
        k = range(self._size)[k]
        while len(self._built) <= k:
            self._built.append(next(self._unbuilt))
        return self._built[k]


@lru_cache(maxsize=64)
def _family_ballots(family: CandidateBallotFamily, space: RankingSpace, eps: float) -> _FamilyBallots:
    return _FamilyBallots(family, space, eps)


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
        return ProfileState.correlated_indices(space, [(rng.choice((1, 2, 3)), (k,) * n_voters) for k in picks])

    return sample


def _orientation_bijection(
    space: RankingSpace, pair: tuple[str, str], rng: random.Random
) -> list[int]:
    """Random basis permutation preserving each ranking's x-vs-y orientation."""
    x, y = map(space.alternatives.index, pair)
    rows = basis_table(space.alternatives).pair_rows
    perm = [0] * space.dim
    # The rankings placing x above y, then the rest: those placing y above x.
    for group in (rows[x, y].tolist(), rows[y, x].tolist()):
        shuffled = group[:]
        rng.shuffle(shuffled)
        for src, dst in zip(group, shuffled):
            perm[src] = dst
    return perm


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
        return profile, profile.permuted(perms), pair

    return sample


def _draws(sampler: Callable[[random.Random], object], trials: int, seed: int) -> Iterator:
    """The trials' draws from a sampler, on one RNG seeded with ``seed``.

    Fewer than one trial is refused here, when called, before the caller
    builds anything.
    """
    if trials < 1:
        raise InvalidArgument("trials must be at least 1")
    rng = random.Random(seed)
    return (sampler(rng) for _ in range(trials))


class _Report:
    """What both report classes share: their JSON is their dataclass fields, with the timing on request.

    ``to_jsonable`` gives every field but ``elapsed_ms``, and adds
    ``elapsed_ms`` rounded to 3 places only when ``include_elapsed`` is set.
    """

    def to_jsonable(self, include_elapsed: bool = False) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed_ms"}
        if include_elapsed:
            data["elapsed_ms"] = round(self.elapsed_ms, 3)
        return data

    def to_json(self, include_elapsed: bool = False) -> str:
        # Wall-clock timing is kept out of the canonical bytes so equal
        # seeds and flags give byte-identical reports.
        return serde.canonical_json(self.to_jsonable(include_elapsed))


@dataclass
class AxiomReport(_Report):
    """Outcome of one axiom check, timed from ``started``; serializes to a canonical JSON report of its fields.

    Unless the check gives its own verdict, it is falsified exactly when
    there are witnesses.
    """

    axiom: str
    rule: str
    trials: int
    seed: int | None
    started: InitVar[float]
    witnesses: list[dict]
    details: dict
    verdict: str | None = None
    elapsed_ms: float = field(init=False)

    def __post_init__(self, started: float):
        self.elapsed_ms = (time.perf_counter() - started) * 1000.0
        if self.verdict is None:
            self.verdict = VERDICT_FALSIFIED if self.witnesses else VERDICT_HOLDS


@dataclass
class SuiteReport(_Report):
    """Bundle of axiom reports, timed from ``started``, with a single bypass verdict.

    The bypass is demonstrated exactly when every component is ok. Its JSON
    holds each nested report's JSON, timed when the suite's is.
    """

    suite: str
    rule: str
    trials: int
    seed: int
    started: InitVar[float]
    components: list[dict]
    reports: list[AxiomReport]
    verdict: str = field(init=False)
    elapsed_ms: float = field(init=False)

    def __post_init__(self, started: float):
        self.elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.verdict = VERDICT_BYPASS if all(c["ok"] for c in self.components) else VERDICT_NOT_BYPASSED

    def to_jsonable(self, include_elapsed: bool = False) -> dict:
        nested = [r.to_jsonable(include_elapsed) for r in self.reports]
        return super().to_jsonable(include_elapsed) | {"reports": nested}


def _fired(
    adapter: _Targets, profile: ProfileState, voter: int, society: list[float]
) -> list[tuple[int, PreferenceKind]]:
    """The (position, clause) pairs that fire for a voter: the voter's value holds the clause, society's does not.

    A position indexes the adapter's targets, and so the values of
    ``society`` and the voter's, which are in target order. The clauses are
    the adapter's (``_Targets.clauses``). A dishonest ballot achieves a
    fired clause when society's value then holds it. A certain value is
    also supported, so both of those clauses can fire for it.
    """
    ballot_values, eps = adapter.voter_values(profile, voter), adapter.eps
    return [
        (j, clause)
        for j, (mine, theirs) in enumerate(zip(ballot_values, society))
        for clause in adapter.clauses
        if clause.holds(mine, eps) and not clause.holds(theirs, eps)
    ]


def _first_witness(
    adapter: _Targets,
    profile: ProfileState,
    voter: int,
    fired: list[tuple[int, PreferenceKind]],
    society: list[float],
    family: CandidateBallotFamily,
    responses: np.ndarray | None,
) -> ManipulationWitness | None:
    """The first dishonest ballot whose exact evaluation achieves a fired clause.

    A rule with a ``responses`` hook is searched at the basis ballots near a
    fired clause (``_near_vertices`` of ``responses``, the hook's d x d
    result for the voter); any other rule over the family, and
    ``responses`` is then None. Candidate evaluations are shared across
    targets: society only changes with the substituted ballot, not with the
    pair or alternative under scrutiny.
    """
    eps = adapter.eps
    if adapter.rule.responses is None:
        candidates = family.ballots(adapter.space, eps)
    else:
        candidates = _near_vertices(adapter, responses, fired)
    for candidate in candidates:
        substituted = profile.substitute_ballot(voter, candidate, eps)
        dishonest = adapter.society_values(substituted)
        for j, clause in fired:
            if clause.holds(dishonest[j], eps):
                return ManipulationWitness(
                    rule_name=adapter.rule.name,
                    rule_kind=adapter.kind,
                    voter=voter,
                    clause=clause,
                    target=adapter.targets[j],
                    truthful_value=society[j],
                    dishonest_value=dishonest[j],
                    dishonest_ballot=candidate,
                    profile=profile,
                )
    return None


def _near_vertices(
    adapter: _Targets, responses: np.ndarray, fired: list[tuple[int, PreferenceKind]]
) -> Iterator[DensityOperator]:
    """The basis ballots that could achieve a fired clause, in basis order.

    The hook's rule reads a ballot only through its basis weights, and is
    linear in them: with ballot c substituted, society's value on target t
    is c . R[:, t], where row k of R is its value with basis ballot k
    (``_Targets.vertex_values`` of the hook's ``responses`` for the voter:
    one product gives the column of each fired clause's target).
    A threshold on a linear function over the simplex is reached at a
    vertex, so the d basis ballots stand for every ballot. A vertex is
    yielded when its value achieves a clause or lies within _VERTEX_MARGIN
    of its threshold; the caller evaluates it exactly, and the witness
    comes from that evaluation.

    Substituting into a correlated profile drops joint terms whose weight
    times the ballot's weight is at most eps, which breaks linearity for
    ballots that put such weight on some ranking. There the vertices stand
    for every ballot that keeps each joint term above that filter.
    """
    columns = adapter.vertex_values(responses, [j for j, _ in fired])
    near = np.zeros(len(columns), dtype=bool)
    for column, (_, clause) in zip(columns.T, fired):
        near |= clause.holds(column - _VERTEX_MARGIN, adapter.eps)
        near |= clause.holds(column + _VERTEX_MARGIN, adapter.eps)
    rankings = adapter.space.rankings()
    return (basis_state(adapter.space, rankings[k]) for k in np.flatnonzero(near))


def _hunt(
    rules: list[WelfareRule | ChoiceRule],
    draws: Iterator[ProfileState],
    family: CandidateBallotFamily,
    eps: float,
) -> Iterator[tuple[int, ProfileState, int, list[ManipulationWitness | None]]]:
    """Each fired voter as (trial, profile, voter, [witness or None, one per rule]), in trial and voter order.

    A voter is yielded when its clause fires under some rule; the trial
    counts draws from 1. The rules share one welfare rule (a composed rule
    shares its welfare rule's, and so its hook). The draws come a batch at
    a time (``_batches``), and every value is read on the first draw's
    space: a draw on another space is refused before any draw of its batch
    is scanned (``_Targets.welfare_weights``). The batch's profiles are
    scored first, with one hook call when the rules have a ``responses``
    hook, and the fired clauses follow. With a hook one more call gives the
    basis responses of every fired voter, whose vertices are searched as
    the voter is reached; without one, the fired voters search the family,
    whose caps are checked once, before the first draw is scored. A
    ``QscError`` on a draw of a batch is raised once the draws before it
    are scanned, as a draw-by-draw hunt would raise it. An eps outside
    [MIN_EPS, MAX_EPS] is refused before the first draw.
    """
    check_eps(eps)
    hook, adapters, drawn = rules[0].responses, [], 0
    for batch in _batches(draws):
        if not adapters:
            if hook is None:
                family.check_size(batch[0].space)
            adapters = [_Targets(rule, batch[0].space, eps) for rule in rules]
        scans, failure = [], None
        try:
            for profile, weights in zip(batch, adapters[0].welfare_weights(batch)):
                drawn += 1
                societies = [a.values(weights) for a in adapters]
                for voter in range(1, profile.n_voters + 1):
                    fired = [_fired(a, profile, voter, s) for a, s in zip(adapters, societies)]
                    if any(fired):
                        scans.append((drawn, profile, voter, societies, fired))
        except QscError as error:  # raised below, after the draws before it
            failure = error
        responses = repeat(None) if hook is None else hook([(profile, voter) for _, profile, voter, _, _ in scans])
        for (trial, profile, voter, societies, fired), rows in zip(scans, responses):
            yield trial, profile, voter, [
                _first_witness(a, profile, voter, f, s, family, rows) if f else None
                for a, s, f in zip(adapters, societies, fired)
            ]
        if failure is not None:
            raise failure


def _searched(rule: WelfareRule | ChoiceRule, family: CandidateBallotFamily) -> dict:
    """A hunt's report of its search: the basis vertices for a rule with a hook, else the family."""
    return {"family": family.describe(), "search": "family" if rule.responses is None else "vertices"}


def manipulation_witness(
    rule: WelfareRule | ChoiceRule,
    profile: ProfileState,
    voter: int,
    target: tuple[str, str] | str,
    family: CandidateBallotFamily,
    eps: float = DEFAULT_EPS,
) -> ManipulationWitness | None:
    """First dishonest ballot flipping society's status on one target.

    The target is an ordered pair (x, y), ranking x above y, for a welfare
    rule, and an alternative, winning, for a choice rule. A rule with a
    ``responses`` hook is searched at the d basis ballots, which stand for
    every density-operator ballot on a product profile (see
    ``_near_vertices``); ``family`` is then not read. Any other rule is
    searched over the family, and absence of a witness means none was found
    in it, not a proof.
    """
    adapter = _Targets(rule, profile.space, eps)
    position = adapter.position(target)
    society = adapter.society_values(profile)
    fired = [(j, clause) for j, clause in _fired(adapter, profile, voter, society) if j == position]
    if not fired:
        return None
    responses = None if rule.responses is None else next(iter(rule.responses([(profile, voter)])))
    return _first_witness(adapter, profile, voter, fired, society, family, responses)


def reverify_witness(
    rule: WelfareRule | ChoiceRule, witness: ManipulationWitness, eps: float = DEFAULT_EPS
) -> bool:
    """Replay a witness from scratch and confirm values and inequality pattern."""
    adapter = _Targets(rule, witness.profile.space, eps)
    position = adapter.position(witness.target)
    truthful = adapter.society_values(witness.profile)[position]
    substituted = witness.profile.substitute_ballot(witness.voter, witness.dishonest_ballot, eps)
    dishonest = adapter.society_values(substituted)[position]
    if abs(truthful - witness.truthful_value) > 1e-6 or abs(dishonest - witness.dishonest_value) > 1e-6:
        return False
    return not witness.clause.holds(truthful, eps) and witness.clause.holds(dishonest, eps)


def check_qic(
    rule: WelfareRule | ChoiceRule,
    sampler: ProfileSampler,
    family: CandidateBallotFamily,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Hunt for strategic-manipulation witnesses over sampled profiles.

    The hunt stops at its first witness, and ``trials_run`` counts the draws
    up to the witness's, or every trial when there is none.
    """
    draws = _draws(sampler, trials, seed)
    started = time.perf_counter()
    witnesses: list[dict] = []
    trials_run = trials
    for trial, _, _, (found,) in _hunt([rule], draws, family, eps):
        if found is not None:
            trials_run, witnesses = trial, [found.to_jsonable()]
            break
    details = {"trials_run": trials_run, **_searched(rule, family)}
    return AxiomReport("qic", rule.name, trials, seed, started, witnesses, details)


def check_dictatorship(
    rule: WelfareRule | ChoiceRule,
    space: RankingSpace,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Eliminate sharp and unsharp dictator candidates by counterexample.

    A voter survives a variant only if no sampled profile broke the
    corresponding equivalence on any target, in either direction: ordered
    pairs for a welfare rule, winner subspaces for a choice rule. The
    electorate is read from the first scored draw, and every later draw
    must have its voters: a draw of another electorate is refused before
    any of its voters is read. The scan stops once every voter is
    eliminated, often within a few draws, so its batches start at one draw
    and double (``_batches``): it scores at most 2t - 1 draws to read t.
    """
    adapter = _Targets(rule, space, eps)
    draws = _draws(sampler, trials, seed)
    started = time.perf_counter()
    counterexamples: dict[tuple[int, str], dict] = {}
    trials_run = 0
    for profile, society in _societies(adapter, draws, 1):
        trials_run += 1
        if trials_run == 1:
            n_voters = profile.n_voters
        elif profile.n_voters != n_voters:
            raise InvalidArgument(f"a profile of {profile.n_voters} voters is not of the first draw's {n_voters}")
        for voter in range(1, n_voters + 1):
            if all((voter, variant) in counterexamples for variant, _ in _VARIANTS):
                continue
            for target, tv, sv in zip(adapter.targets, adapter.voter_values(profile, voter), society):
                for variant, kind in _VARIANTS:
                    voter_holds, society_holds = kind.holds(tv, eps), kind.holds(sv, eps)
                    if voter_holds == society_holds or (voter, variant) in counterexamples:
                        continue
                    counterexamples[(voter, variant)] = _record(
                        "dictatorship-counterexample",
                        profile,
                        variant=variant,
                        voter=voter,
                        target=target,
                        direction=_DIRECTIONS[variant][voter_holds],
                        voter_value=tv,
                        society_value=sv,
                    )
        if len(counterexamples) == len(_VARIANTS) * n_voters:
            break
    survivors = [
        {"voter": voter, "variant": variant}
        for voter in range(1, n_voters + 1)
        for variant, _ in _VARIANTS
        if (voter, variant) not in counterexamples
    ]
    verdict = VERDICT_NO_DICTATOR if not survivors else VERDICT_DICTATOR_CANDIDATE
    ordered = [counterexamples[k] for k in sorted(counterexamples)]
    details = {"trials_run": trials_run, "survivors": survivors, "voters": n_voters}
    axiom = f"dictatorship-{adapter.kind}"
    return AxiomReport(axiom, rule.name, trials, seed, started, ordered, details, verdict)


def check_onto(
    rule: ChoiceRule,
    alternatives: AlternativeSet,
    n_voters: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Each alternative must win outright on its unanimous basis profile."""
    started = time.perf_counter()
    space = RankingSpace(alternatives)
    adapter = _Targets(rule, space, eps, kind="choice")
    failures: list[dict] = []
    reached = 0
    # Each alternative's unanimous ranking: the first of its Lehmer block, the rest in label order.
    table = basis_table(alternatives)
    profiles = [
        ProfileState.product_of([basis_state(space, table.rankings[first])] * n_voters)
        for first in table.winner_rows[:, 0].tolist()
    ]
    for a, profile, society in zip(alternatives.names, profiles, adapter.society_batch(profiles)):
        value = society[alternatives.index(a)]
        if PreferenceKind.STRONG_POSITIVE.holds(value, eps):
            reached += 1
        else:
            failures.append(_record("onto-failure", profile, alternative=a, achieved=value))
    details = {"reached": reached, "alternatives": alternatives.m, "voters": n_voters}
    return AxiomReport("onto", rule.name, alternatives.m, None, started, failures, details)


def check_unanimity(
    rule: WelfareRule,
    space: RankingSpace,
    sampler: ProfileSampler,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Whenever every ballot (fully / at all) supports a pair, society must too."""
    adapter = _Targets(rule, space, eps, kind="welfare")
    draws = _draws(sampler, trials, seed)
    started = time.perf_counter()
    violations: list[dict] = []
    details = {variant: {"instances": 0, "violations": 0} for variant, _ in _VARIANTS}
    for profile, society in _societies(adapter, draws):
        marginals = [adapter.voter_values(profile, v) for v in range(1, profile.n_voters + 1)]
        for target, society_value, *values in zip(adapter.targets, society, *marginals):
            for variant, kind in _VARIANTS:
                if not all(kind.holds(v, eps) for v in values):
                    continue
                details[variant]["instances"] += 1
                if not kind.holds(society_value, eps):
                    details[variant]["violations"] += 1
                    violations.append(_record(
                        "unanimity-violation",
                        profile,
                        variant=variant,
                        target=target,
                        ballot_values=values,
                        society_value=society_value,
                    ))
    return AxiomReport("unanimity", rule.name, trials, seed, started, violations, details)


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
    adapter = _Targets(rule, space, eps, kind="welfare")
    draws = _draws(paired_sampler, trials, seed)
    started = time.perf_counter()
    violations: list[dict] = []
    details: dict = {variant: {"instances": 0} for variant, _ in _VARIANTS}
    for batch in _batches(draws):
        societies = adapter.society_batch([profile for draw in batch for profile in draw[:2]])
        for profile, twin, pair in batch:
            j = adapter.position(pair)
            for voter in range(1, profile.n_voters + 1):
                mine, theirs = (adapter.voter_values(p, voter)[j] for p in (profile, twin))
                if abs(mine - theirs) > eps:
                    raise InvalidArgument(
                        f"paired sampler broke its contract: voter {voter} disagrees on "
                        f"{pair} ({mine} vs {theirs})"
                    )
            value, twin_value = next(societies)[j], next(societies)[j]
            for variant, kind in _VARIANTS:
                status, twin_status = kind.holds(value, eps), kind.holds(twin_value, eps)
                if status or twin_status:
                    details[variant]["instances"] += 1
                if status != twin_status:
                    violations.append(_record(
                        "iia-violation",
                        profile,
                        variant=variant,
                        target=pair,
                        society_value=value,
                        twin_society_value=twin_value,
                        twin_profile=serde.serialize_profile(twin, _RECORD_EPS),
                    ))
    details["violations"] = len(violations)
    return AxiomReport("iia", rule.name, trials, seed, started, violations, details)


def check_composition_preservation(
    rule: WelfareRule,
    sampler: ProfileSampler,
    family: CandidateBallotFamily,
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> AxiomReport:
    """Manipulability must not appear under the natural extension out of nowhere.

    For each sampled (profile, voter): if no welfare witness exists on any
    pair, no choice witness may exist on any alternative for the composed
    rule.
    """
    _rule_kind(rule, "welfare")
    draws = _draws(sampler, trials, seed)
    started = time.perf_counter()
    composed = compose(rule, eps)
    violations: list[dict] = []
    welfare_hits = 0
    choice_hits = 0
    for _, profile, voter, (w_witness, c_witness) in _hunt([rule, composed], draws, family, eps):
        welfare_hits += w_witness is not None
        choice_hits += c_witness is not None
        if w_witness is None and c_witness is not None:
            violations.append(
                _record("composition-violation", profile, voter=voter, choice_witness=c_witness.to_jsonable())
            )
    details = {"welfare_witnesses": welfare_hits, "choice_witnesses": choice_hits, **_searched(rule, family)}
    return AxiomReport("composition-preservation", composed.name, trials, seed, started, violations, details)


def _component(name: str, ok: bool, verdict: str | None = None) -> dict:
    """One suite component; its verdict is holds-on-sample or falsified unless given."""
    if verdict is None:
        verdict = VERDICT_HOLDS if ok else VERDICT_FALSIFIED
    return {"name": name, "ok": ok, "verdict": verdict}


def _suite_sampler(alternatives: AlternativeSet, n_voters: int, trials: int) -> tuple[RankingSpace, ProfileSampler]:
    """A suite's space and profile sampler; a suite too small to run is refused before its rule is read."""
    if alternatives.m < 3:
        raise InvalidArgument("suites need at least 3 alternatives")
    if n_voters < 1 or trials < 1:
        raise InvalidArgument("need at least one voter and one trial")
    space = RankingSpace(alternatives)
    return space, default_profile_sampler(space, n_voters)


def run_arrow_suite(
    rule: WelfareRule,
    alternatives: AlternativeSet,
    n_voters: int = 3,
    trials: int = 200,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> SuiteReport:
    """Unanimity, independence and non-dictatorship, bundled."""
    started = time.perf_counter()
    space, sampler = _suite_sampler(alternatives, n_voters, trials)
    paired = default_paired_sampler(space, n_voters)
    unanimity = check_unanimity(rule, space, sampler, trials, seed, eps)
    iia = check_iia(rule, space, paired, trials, seed + 1, eps)
    dictatorship = check_dictatorship(rule, space, sampler, trials, seed + 2, eps)
    variants = [variant for variant, _ in _VARIANTS]
    components = [
        *(_component(f"unanimity-{v}", unanimity.details[v]["violations"] == 0) for v in variants),
        *(_component(f"iia-{v}", all(w["variant"] != v for w in iia.witnesses)) for v in variants),
        _component("non-dictatorship", dictatorship.verdict == VERDICT_NO_DICTATOR, dictatorship.verdict),
    ]
    return SuiteReport("arrow-suite", rule.name, trials, seed, started, components, [unanimity, iia, dictatorship])


def run_gs_suite(
    rule: ChoiceRule,
    alternatives: AlternativeSet,
    n_voters: int = 3,
    trials: int = 200,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
    family: CandidateBallotFamily = CandidateBallotFamily(),
) -> SuiteReport:
    """Incentive compatibility, onto and non-dictatorship, bundled."""
    started = time.perf_counter()
    space, sampler = _suite_sampler(alternatives, n_voters, trials)
    _rule_kind(rule, "choice")
    qic = check_qic(rule, sampler, family, trials, seed, eps)
    onto = check_onto(rule, alternatives, n_voters, eps)
    dictatorship = check_dictatorship(rule, space, sampler, trials, seed + 1, eps)
    components = [
        _component("qic", qic.verdict == VERDICT_HOLDS),
        _component("onto", onto.verdict == VERDICT_HOLDS),
        _component("non-dictatorship", dictatorship.verdict == VERDICT_NO_DICTATOR, dictatorship.verdict),
    ]
    return SuiteReport("gs-suite", rule.name, trials, seed, started, components, [qic, onto, dictatorship])
