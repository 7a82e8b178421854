"""Quantum substrate over the ranking basis.

States are density operators on the Hilbert space whose basis vectors are
the m! strict rankings. Every shipped rule reads only basis weights, so a
state is stored as its basis-weight vector (its diagonal); a pure ballot
also keeps its unit amplitude vector. The density matrix is derived on
demand, and ``DensityOperator.from_matrix`` is the one validated edge
through which a caller's matrix enters. Pair and winner subspaces are index
sets of basis rankings, so every probability read-out sums diagonal weights.
Joint voter states are kept factored (product form) or as a sparse diagonal
term list (correlated form); the full (m!)^n joint matrix is never
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidArgument, ResourceLimit, ZeroMassProjection
from .rankings import AlternativeSet, Ranking, all_rankings, ranking_index

DEFAULT_EPS = 1e-9
DEFAULT_SUPPORT_CAP = 20_000


@dataclass(frozen=True)
class RankingSpace:
    """Hilbert space with one basis vector per strict ranking."""

    alternatives: AlternativeSet

    @property
    def dim(self) -> int:
        return factorial(self.alternatives.m)

    def rankings(self) -> tuple[Ranking, ...]:
        return all_rankings(self.alternatives)

    def basis_index(self, ranking: Ranking) -> int:
        if ranking.alternatives != self.alternatives:
            raise InvalidArgument("ranking belongs to a different alternative set")
        return ranking_index(ranking)


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Subspace:
    """Span of a set of basis rankings; its projector is diagonal in that basis."""

    space: RankingSpace
    indices: np.ndarray


def _subspace(space: RankingSpace, keep: Callable[[Ranking], bool]) -> Subspace:
    return Subspace(
        space, _frozen_array([k for k, r in enumerate(space.rankings()) if keep(r)], np.intp)
    )


@lru_cache(maxsize=4096)
def pair_projector(space: RankingSpace, x: str, y: str) -> Subspace:
    """Subspace of the basis rankings placing x above y."""
    if x == y:
        raise InvalidArgument(f"projector needs two distinct alternatives, got {x!r} twice")
    space.alternatives.index(x)
    space.alternatives.index(y)
    return _subspace(space, lambda r: r.prefers(x, y))


@lru_cache(maxsize=1024)
def winner_projector(space: RankingSpace, alternative: str) -> Subspace:
    """Subspace of the basis rankings topped by one alternative."""
    space.alternatives.index(alternative)
    return _subspace(space, lambda r: r.top() == alternative)


def validate_density(matrix: np.ndarray, dim: int, eps: float = DEFAULT_EPS) -> None:
    """Raise unless ``matrix`` is Hermitian, PSD and unit-trace within eps."""
    if matrix.shape != (dim, dim):
        raise InvalidArgument(f"density must be {dim}x{dim}, got {matrix.shape}")
    if not np.allclose(matrix, matrix.conj().T, atol=eps, rtol=0.0):
        raise InvalidArgument("density is not Hermitian within tolerance")
    trace = float(np.real(np.trace(matrix)))
    if abs(trace - 1.0) > eps:
        raise InvalidArgument(f"density trace {trace} is not 1 within tolerance")
    lowest = float(np.linalg.eigvalsh(matrix)[0])
    if lowest < -eps:
        raise InvalidArgument(f"density has negative eigenvalue {lowest}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Density on a ranking space, stored by its basis weights.

    ``diagonal`` holds the basis weights. A pure state with coherences above
    eps also keeps its unit ``amplitudes``, phase-fixed so that the first
    entry above eps is real and positive; every other state is diagonal.
    The constructor trusts its arguments: build states with the functions
    below, or pass a caller's matrix through ``from_matrix``.
    """

    space: RankingSpace
    diagonal: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "diagonal", _frozen_array(self.diagonal, np.float64))
        dim = self.space.dim
        if self.diagonal.shape != (dim,):
            raise InvalidArgument(f"diagonal must have length {dim}, got {self.diagonal.shape}")
        if self.amplitudes is not None:
            object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes, np.complex128))

    @classmethod
    def from_matrix(
        cls, space: RankingSpace, matrix: np.ndarray, eps: float = DEFAULT_EPS
    ) -> "DensityOperator":
        """Validated edge for a caller's density matrix.

        A matrix within eps of diagonal is stored by its diagonal, a rank-1
        one by its leading eigenvector. A mixture with coherences has
        neither form and is rejected.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        validate_density(matrix, space.dim, eps)
        off = matrix - np.diag(matrix.diagonal())
        if float(np.abs(off).max(initial=0.0)) <= eps:
            return cls(space, np.real(matrix.diagonal()))
        if float(np.real(np.trace(matrix @ matrix))) >= 1.0 - 2 * eps:
            return _unit_vector_state(space, np.linalg.eigh(matrix)[1][:, -1], eps)
        raise InvalidArgument("density has no term-list form (mixed with coherences)")

    @property
    def matrix(self) -> np.ndarray:
        """Dense density matrix, derived on demand."""
        if self.amplitudes is None:
            return np.diag(self.diagonal.astype(np.complex128))
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def diagonal_support(self, eps: float = DEFAULT_EPS) -> tuple[tuple[int, float], ...]:
        """Basis indices carrying more than eps weight, memoized per state."""
        cached = getattr(self, "_support_cache", None)
        if cached is not None and cached[0] == eps:
            return cached[1]
        diag = self.diagonal
        entries = tuple((int(k), float(diag[k])) for k in np.flatnonzero(diag > eps))
        object.__setattr__(self, "_support_cache", (eps, entries))
        return entries

    def permuted(self, perm: Sequence[int]) -> "DensityOperator":
        """The state with basis weight (and amplitude) k moved to index perm[k]."""
        if self.amplitudes is None:
            moved = np.empty_like(self.diagonal)
            moved[perm] = self.diagonal
            return DensityOperator(self.space, moved)
        moved = np.empty_like(self.amplitudes)
        moved[perm] = self.amplitudes
        return _unit_vector_state(self.space, moved, DEFAULT_EPS)

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        validate_density(self.matrix, self.space.dim, eps)


def _unit_vector_state(space: RankingSpace, vector: np.ndarray, eps: float) -> DensityOperator:
    """State of a unit vector, stored diagonal when no coherence exceeds eps."""
    weights = (vector * vector.conj()).real
    magnitudes = np.abs(vector)
    first, second = np.sort(magnitudes)[:-3:-1]
    if first * second <= eps:
        return DensityOperator(space, weights)
    # Fix the global phase so serialization is reproducible.
    lead = int(np.argmax(magnitudes > eps))
    amplitudes = vector * (magnitudes[lead] / vector[lead])
    # The product can leave a rounding-level imaginary part on the lead.
    amplitudes[lead] = magnitudes[lead]
    return DensityOperator(space, weights, amplitudes)


def pure_state(
    space: RankingSpace,
    terms: Iterable[tuple[complex, Ranking]],
    eps: float = DEFAULT_EPS,
) -> DensityOperator:
    """Rank-1 density from amplitude terms; amplitudes are normalized."""
    vector = np.zeros(space.dim, dtype=np.complex128)
    for amplitude, ranking in terms:
        value = complex(amplitude)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InvalidArgument(f"amplitudes must be finite, got {amplitude!r}")
        vector[space.basis_index(ranking)] += value
    norm = float(np.linalg.norm(vector))
    if norm <= eps:
        raise InvalidArgument("pure state needs at least one nonzero amplitude")
    if not math.isfinite(norm):
        raise InvalidArgument(f"amplitude norm {norm} is not finite")
    return _unit_vector_state(space, vector / norm, eps)


def mixed_state(
    space: RankingSpace,
    terms: Iterable[tuple[float, Ranking]],
    eps: float = DEFAULT_EPS,
) -> DensityOperator:
    """Diagonal density from weight terms; weights are normalized."""
    diag = np.zeros(space.dim, dtype=np.float64)
    for weight, ranking in terms:
        w = float(weight)
        if not math.isfinite(w) or w < 0.0:
            raise InvalidArgument(f"mixture weights must be finite and nonnegative, got {w}")
        diag[space.basis_index(ranking)] += w
    total = float(diag.sum())
    if total <= eps:
        raise InvalidArgument("mixture needs positive total weight")
    if not math.isfinite(total):
        raise InvalidArgument(f"mixture total weight {total} is not finite")
    return DensityOperator(space, diag / total)


def basis_state(space: RankingSpace, ranking: Ranking, eps: float = DEFAULT_EPS) -> DensityOperator:
    """Point mass on a single basis ranking."""
    return mixed_state(space, [(1.0, ranking)], eps)


def diagonal_state(space: RankingSpace, diag: np.ndarray, eps: float = DEFAULT_EPS) -> DensityOperator:
    """Density with the given (already normalized) basis weights."""
    vec = np.asarray(diag, dtype=np.float64)
    if vec.shape != (space.dim,):
        raise InvalidArgument(f"diagonal must have length {space.dim}, got {vec.shape}")
    if float(vec.min()) < -eps:
        raise InvalidArgument(f"diagonal has negative weight {float(vec.min())}")
    total = float(vec.sum())
    if abs(total - 1.0) > eps:
        raise InvalidArgument(f"diagonal weights sum to {total}, expected 1")
    return DensityOperator(space, vec)


def support_probability(state: DensityOperator, projector: Subspace, eps: float = DEFAULT_EPS) -> float:
    """Tr(P rho): total basis weight inside the subspace."""
    if projector.space != state.space:
        raise InvalidArgument("projector and state live on different spaces")
    value = float(state.diagonal[projector.indices].sum())
    if -eps <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + eps:
        return 1.0
    return value


def uniform_subspace_state(
    space: RankingSpace, x: str, y: str, eps: float = DEFAULT_EPS
) -> DensityOperator:
    """Maximally mixed state on the x-above-y subspace (weight 2/m! each)."""
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


@dataclass(frozen=True, eq=False)
class ProfileState:
    """Joint ballot of n voters.

    Exactly one of ``factors`` (product of per-voter densities) and
    ``joint`` (classically correlated weights over ranking tuples) is set.
    """

    space: RankingSpace
    factors: tuple[DensityOperator, ...] | None = None
    joint: tuple[tuple[float, tuple[Ranking, ...]], ...] | None = None

    def __post_init__(self):
        if (self.factors is None) == (self.joint is None):
            raise InvalidArgument("profile must be either product form or correlated form")

    @classmethod
    def product_of(cls, ballots: Sequence[DensityOperator]) -> "ProfileState":
        ballots = tuple(ballots)
        if not ballots:
            raise InvalidArgument("profile needs at least one voter")
        space = ballots[0].space
        if any(b.space != space for b in ballots):
            raise InvalidArgument("all ballots must share one ranking space")
        return cls(space, factors=ballots)

    @classmethod
    def correlated(
        cls,
        space: RankingSpace,
        terms: Sequence[tuple[float, Sequence[Ranking]]],
        eps: float = DEFAULT_EPS,
    ) -> "ProfileState":
        if not terms:
            raise InvalidArgument("correlated profile needs at least one term")
        n = len(terms[0][1])
        if n < 1:
            raise InvalidArgument("correlated profile needs at least one voter")
        cleaned = []
        total = 0.0
        for weight, rankings in terms:
            w = float(weight)
            if w <= 0.0:
                raise InvalidArgument(f"correlated weights must be positive, got {w}")
            if len(rankings) != n:
                raise InvalidArgument("all correlated terms must rank the same voters")
            for r in rankings:
                if r.alternatives != space.alternatives:
                    raise InvalidArgument("ranking belongs to a different alternative set")
            cleaned.append((w, tuple(rankings)))
            total += w
        if abs(total - 1.0) > eps:
            raise InvalidArgument(f"correlated weights sum to {total}, expected 1")
        return cls(space, joint=tuple(cleaned))

    @classmethod
    def basis(cls, profile_rankings: Sequence[Ranking]) -> "ProfileState":
        """Product profile of basis ballots, one per ranking."""
        if not profile_rankings:
            raise InvalidArgument("profile needs at least one voter")
        space = RankingSpace(profile_rankings[0].alternatives)
        return cls.product_of([basis_state(space, r) for r in profile_rankings])

    @property
    def n_voters(self) -> int:
        if self.factors is not None:
            return len(self.factors)
        return len(self.joint[0][1])

    def _check_voter(self, voter: int) -> int:
        if not 1 <= voter <= self.n_voters:
            raise InvalidArgument(f"voter index {voter} out of range 1..{self.n_voters}")
        return voter - 1

    def partial_ballot(self, voter: int, eps: float = DEFAULT_EPS) -> DensityOperator:
        """Marginal ballot of one voter (1-based index)."""
        pos = self._check_voter(voter)
        if self.factors is not None:
            return self.factors[pos]
        diag = np.zeros(self.space.dim, dtype=np.float64)
        for weight, rankings in self.joint:
            diag[self.space.basis_index(rankings[pos])] += weight
        return diagonal_state(self.space, diag / diag.sum(), eps)

    def support_tuples(
        self,
        eps: float = DEFAULT_EPS,
        cap: int = DEFAULT_SUPPORT_CAP,
    ) -> list[tuple[float, tuple[int, ...]]]:
        """Diagonal support as (weight, basis-index tuple) terms summing to 1."""
        if self.factors is not None:
            per_voter: list[tuple[tuple[int, float], ...]] = []
            count = 1
            for ballot in self.factors:
                entries = ballot.diagonal_support(eps)
                per_voter.append(entries)
                count *= len(entries)
                if count > cap:
                    raise ResourceLimit(
                        f"profile support exceeds {cap} ranking combinations"
                    )
            combos: dict[tuple[int, ...], float] = {}
            stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
            for entries in per_voter:
                stack = [
                    (prefix + (k,), w * wk) for prefix, w in stack for k, wk in entries
                ]
            for key, w in stack:
                combos[key] = combos.get(key, 0.0) + w
        else:
            combos = {}
            for weight, rankings in self.joint:
                if weight <= eps:
                    continue
                key = tuple(self.space.basis_index(r) for r in rankings)
                combos[key] = combos.get(key, 0.0) + weight
            if len(combos) > cap:
                raise ResourceLimit(f"profile support exceeds {cap} ranking combinations")
        total = sum(combos.values())
        if total <= eps:
            raise InvalidArgument("profile has no diagonal support")
        return [(w / total, key) for key, w in sorted(combos.items())]

    def substitute_ballot(self, voter: int, ballot: DensityOperator, eps: float = DEFAULT_EPS) -> "ProfileState":
        """Profile with one voter's ballot replaced (the others untouched).

        For correlated profiles the replacement enters through its basis
        weights only, leaving the remaining voters' correlation intact.
        """
        pos = self._check_voter(voter)
        if ballot.space != self.space:
            raise InvalidArgument("replacement ballot lives on a different space")
        if self.factors is not None:
            factors = list(self.factors)
            factors[pos] = ballot
            return ProfileState.product_of(factors)
        support = ballot.diagonal_support(eps)
        rankings_by_index = self.space.rankings()
        terms: dict[tuple[Ranking, ...], float] = {}
        for weight, rankings in self.joint:
            for k, wk in support:
                new_rankings = list(rankings)
                new_rankings[pos] = rankings_by_index[k]
                key = tuple(new_rankings)
                terms[key] = terms.get(key, 0.0) + weight * wk
        total = sum(terms.values())
        normalized = [(w / total, key) for key, w in sorted(terms.items(), key=lambda kv: tuple(ranking_index(r) for r in kv[0]))]
        return ProfileState.correlated(self.space, normalized, eps)


@dataclass(frozen=True, eq=False)
class AlternativeState:
    """Probability distribution over alternatives (diagonal density on the alternative space)."""

    alternatives: AlternativeSet
    probabilities: Mapping[str, float]

    def __getitem__(self, label: str) -> float:
        self.alternatives.index(label)
        return self.probabilities.get(label, 0.0)

    def as_dict(self) -> dict[str, float]:
        return {name: self.probabilities.get(name, 0.0) for name in self.alternatives.names}

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        total = 0.0
        for name in self.alternatives.names:
            p = self.probabilities.get(name, 0.0)
            if p < -eps or p > 1.0 + eps:
                raise InvalidArgument(f"probability for {name!r} out of [0, 1]: {p}")
            total += p
        if abs(total - 1.0) > eps:
            raise InvalidArgument(f"alternative probabilities sum to {total}, expected 1")


def alternative_state(
    alternatives: AlternativeSet,
    probabilities: Mapping[str, float],
    eps: float = DEFAULT_EPS,
) -> AlternativeState:
    """Validated distribution over alternatives; tiny negatives are clamped."""
    cleaned = {}
    for name in alternatives.names:
        p = float(probabilities.get(name, 0.0))
        cleaned[name] = 0.0 if -eps <= p < 0.0 else p
    state = AlternativeState(alternatives, cleaned)
    state.validate(eps)
    return state


def density_terms(
    state: DensityOperator, eps: float = DEFAULT_EPS
) -> tuple[str, list[tuple[complex, Ranking]]] | tuple[str, list[tuple[float, Ranking]]]:
    """Term-list form of a density: ("mixed", weight terms) or ("pure", amplitude terms)."""
    rankings = state.space.rankings()
    if state.amplitudes is None:
        diag = state.diagonal
        return "mixed", [(float(diag[k]), rankings[k]) for k in np.flatnonzero(diag > eps)]
    vector = state.amplitudes
    return "pure", [
        (complex(vector[k]), rankings[k]) for k in np.flatnonzero(np.abs(vector) > eps)
    ]
