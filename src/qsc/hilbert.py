"""Quantum substrate over the ranking basis.

States are density operators on the Hilbert space whose basis vectors are
the m! strict rankings. Every shipped rule reads only basis weights, so a
state is stored as its basis-weight vector (its diagonal); a pure ballot
also keeps its unit amplitude vector. The density matrix is derived on
demand, and ``DensityOperator.from_matrix`` is the one validated edge
through which a caller's matrix enters. Pair and winner subspaces are index
sets of basis rankings, so every probability read-out sums diagonal weights.
Joint voter states are kept factored (product form) or as a sparse diagonal
term list over basis-index tuples (correlated form); the full (m!)^n joint
matrix is never materialized.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from math import factorial
from operator import add

import numpy as np

from .errors import InvalidArgument, ResourceLimit
from .rankings import AlternativeSet, Ranking, all_rankings, basis_table, ranking_index

DEFAULT_EPS = 1e-9
MAX_EPS = 1e-3  # a larger tolerance would blur the clause thresholds it decides
MIN_EPS = 1e-12  # a smaller one would fail a sum of m! weights on its rounding alone
DEFAULT_SUPPORT_CAP = 20_000


def check_number(name: str, value: float) -> None:
    """Refuse a value that is not a real number (``numbers.Real``), naming it ``name``."""
    if not isinstance(value, numbers.Real):
        raise InvalidArgument(f"{name} must be a number, got {value!r}")


def check_eps(eps: float) -> None:
    """Refuse a tolerance that is not a number, or outside [MIN_EPS, MAX_EPS], NaN included."""
    check_number("eps", eps)
    if not MIN_EPS <= eps <= MAX_EPS:
        raise InvalidArgument(f"eps must lie in [{MIN_EPS}, {MAX_EPS}], got {eps}")


def check_integer(name: str, value: int) -> int:
    """The value as a Python int; refuse a value that is not an integer, naming it ``name``.

    An integer has ``__index__``, so a numpy integer becomes the int it
    holds. A bool has one too, but is refused, as an integral float is.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_voter_index(voter: int) -> int:
    """The voter index as a Python int (``check_integer``); refuse one that no message can print.

    An integer past str()'s digit limit is out of range of every profile,
    and no message could name it.
    """
    voter = check_integer("voter index", voter)
    try:
        str(voter)
    except ValueError:  # str() refuses an integer past 4,300 digits
        raise InvalidArgument("voter index out of range, got an integer too long to print") from None
    return voter


def check_basis_indices(keys: Iterable[Sequence[int]], dim: int) -> None:
    """Refuse a key of basis indices unless each index is an integer in 0..dim-1."""
    valid = frozenset(range(dim))
    for key in keys:
        # The set also admits integral floats; a float makes the key's sum a float, which has no __index__.
        if not (valid.issuperset(key) and hasattr(sum(key), "__index__")):
            try:
                shown = str(list(key))
            except ValueError:  # str() refuses an integer past 4,300 digits
                shown = "an integer too long to print"
            raise InvalidArgument(f"ranking indices must lie in 0..{dim - 1}, got {shown}")


@dataclass(frozen=True)
class RankingSpace:
    """Hilbert space with one basis vector per strict ranking."""

    alternatives: AlternativeSet

    @cached_property
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


def pair_projector(space: RankingSpace, x: str, y: str) -> Subspace:
    """Subspace of the basis rankings placing x above y."""
    if x == y:
        raise InvalidArgument(f"projector needs two distinct alternatives, got {x!r} twice")
    index = space.alternatives.index
    return Subspace(space, basis_table(space.alternatives).pair_rows[index(x), index(y)])


def winner_projector(space: RankingSpace, alternative: str) -> Subspace:
    """Subspace of the basis rankings topped by one alternative: one Lehmer block."""
    top = space.alternatives.index(alternative)
    return Subspace(space, basis_table(space.alternatives).winner_rows[top])


def _check_hermitian_unit_trace(matrix: np.ndarray, dim: int, eps: float) -> None:
    """Raise unless ``matrix`` is dim x dim, finite, Hermitian and unit-trace within eps.

    A non-finite entry is refused first: ``np.allclose`` reads inf as close
    to inf, and the decomposition that follows fails on one.
    """
    if matrix.shape != (dim, dim):
        raise InvalidArgument(f"density must be {dim}x{dim}, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise InvalidArgument("density has a non-finite entry")
    if not np.allclose(matrix, matrix.conj().T, atol=eps, rtol=0.0):
        raise InvalidArgument("density is not Hermitian within tolerance")
    trace = float(np.real(np.trace(matrix)))
    if not abs(trace - 1.0) <= eps:
        raise InvalidArgument(f"density trace {trace} is not 1 within tolerance")


def _check_lowest_eigenvalue(lowest: float, eps: float) -> None:
    if not lowest >= -eps:
        raise InvalidArgument(f"density has negative eigenvalue {lowest}")


def validate_density(matrix: np.ndarray, dim: int, eps: float = DEFAULT_EPS) -> None:
    """Raise unless ``matrix`` is Hermitian, PSD and unit-trace within eps."""
    _check_hermitian_unit_trace(matrix, dim, eps)
    _check_lowest_eigenvalue(float(np.linalg.eigvalsh(matrix)[0]), eps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Density on a ranking space, stored by its basis weights.

    ``diagonal`` holds the basis weights. A pure state with coherences above
    eps also keeps its unit ``amplitudes``, phase-fixed so that the first
    entry above eps is real and positive; every other state is diagonal.
    The constructor checks only the diagonal's length and that every weight
    and amplitude is finite: build states with the functions below, or pass
    a caller's matrix through ``from_matrix``.
    """

    space: RankingSpace
    diagonal: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "diagonal", _frozen_array(self.diagonal, np.float64))
        dim = self.space.dim
        if self.diagonal.shape != (dim,):
            raise InvalidArgument(f"diagonal must have length {dim}, got {self.diagonal.shape}")
        finite = np.isfinite(self.diagonal)
        if not finite.all():
            raise InvalidArgument(f"diagonal has non-finite weight {float(self.diagonal[~finite][0])}")
        if self.amplitudes is not None:
            object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes, np.complex128))
            finite = np.isfinite(self.amplitudes)
            if not finite.all():
                raise InvalidArgument(f"amplitudes have non-finite entry {complex(self.amplitudes[~finite][0])}")

    @classmethod
    def from_matrix(
        cls, space: RankingSpace, matrix: np.ndarray, eps: float = DEFAULT_EPS
    ) -> "DensityOperator":
        """Validated edge for a caller's density matrix.

        A matrix within eps of diagonal is stored by its diagonal, a rank-1
        one by its leading eigenvector. A mixture with coherences has
        neither form and is rejected. The matrix is decomposed once: a
        near-diagonal one by ``eigvalsh`` for the PSD check, any other by
        one ``eigh``, whose values give the PSD check and the purity (the
        sum of their squares is Tr(rho^2)) and whose last column the vector.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        _check_hermitian_unit_trace(matrix, space.dim, eps)
        off = matrix - np.diag(matrix.diagonal())
        if float(np.abs(off).max(initial=0.0)) <= eps:
            _check_lowest_eigenvalue(float(np.linalg.eigvalsh(matrix)[0]), eps)
            return cls(space, np.real(matrix.diagonal()))
        values, vectors = np.linalg.eigh(matrix)
        _check_lowest_eigenvalue(float(values[0]), eps)
        if float(values @ values) >= 1.0 - 2 * eps:
            return _unit_vector_state(space, vectors[:, -1], eps)
        raise InvalidArgument("density has no term-list form (mixed with coherences)")

    @property
    def matrix(self) -> np.ndarray:
        """Dense density matrix, derived on demand."""
        if self.amplitudes is None:
            return np.diag(self.diagonal.astype(np.complex128))
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def diagonal_support(self, eps: float = DEFAULT_EPS) -> tuple[tuple[int, float], ...]:
        """Basis indices carrying more than eps weight, with their weights."""
        diag = self.diagonal
        return tuple((int(k), float(diag[k])) for k in np.flatnonzero(diag > eps))

    def permuted(self, perm: Sequence[int]) -> "DensityOperator":
        """The state with basis weight (and amplitude) k moved to index perm[k].

        The weights move bit for bit, and a pure state stays pure: its moved
        amplitudes are only re-phased, so that the first above DEFAULT_EPS
        is real and positive (``_phase_fixed``).
        """
        weights = np.empty_like(self.diagonal)
        weights[perm] = self.diagonal
        if self.amplitudes is None:
            return DensityOperator(self.space, weights)
        moved = np.empty_like(self.amplitudes)
        moved[perm] = self.amplitudes
        return DensityOperator(self.space, weights, _phase_fixed(moved, np.abs(moved), DEFAULT_EPS))

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Raise unless the basis weights are a distribution within eps (``check_distribution``) and a
        pure state's amplitudes square to them within eps; no dense matrix is built."""
        check_distribution(self.diagonal, eps)
        squares = self.diagonal if self.amplitudes is None else np.abs(self.amplitudes) ** 2
        if not (squares.shape == self.diagonal.shape and np.abs(squares - self.diagonal).max() <= eps):
            raise InvalidArgument("amplitudes do not square to the basis weights within tolerance")


def _as_float(value) -> float:
    """``float(value)``, with an integer past the float range read as the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _scale(magnitudes: Iterable[float]) -> int:
    """The e for which 2**e brings the largest magnitude into [0.5, 1) (0 when there is none).

    Scaling by a power of two (``math.ldexp``) is exact, so scaled terms keep
    their ratios bit for bit, and a ballot's largest term can neither
    overflow in a square or sum nor underflow in a square.
    """
    return -math.frexp(max(magnitudes, default=0.0))[1]


def _unit_vector_state(space: RankingSpace, vector: np.ndarray, eps: float) -> DensityOperator:
    """State of a unit vector, stored diagonal when no coherence exceeds eps.

    Its squares are its weights: those of a unit vector of d entries sum to
    1 within d ulp (1.6e-13 at d = 720), below MIN_EPS.
    """
    weights = (vector * vector.conj()).real
    magnitudes = np.abs(vector)
    first, second = np.sort(magnitudes)[:-3:-1]
    if first * second <= eps:
        return DensityOperator(space, weights)
    return DensityOperator(space, weights, _phase_fixed(vector, magnitudes, eps))


def _phase_fixed(vector: np.ndarray, magnitudes: np.ndarray, eps: float) -> np.ndarray:
    """The vector under the global phase that makes its first entry of magnitude above eps real and positive.

    A fixed phase makes serialization reproducible.
    """
    lead = int((magnitudes > eps).argmax())
    amplitudes = vector * (magnitudes[lead] / vector[lead])
    # The product can leave a rounding-level imaginary part on the lead.
    amplitudes[lead] = magnitudes[lead]
    return amplitudes


def pure_state(
    space: RankingSpace,
    terms: Iterable[tuple[complex, Ranking]],
    eps: float = DEFAULT_EPS,
) -> DensityOperator:
    """Rank-1 density from amplitude terms; amplitudes are normalized from any finite scale (``_scale``).

    An amplitude that is not a number (``numbers.Complex``) is refused.
    """
    read = []
    for amplitude, ranking in terms:
        if not isinstance(amplitude, numbers.Complex):
            raise InvalidArgument(f"amplitude must be a number, got {amplitude!r}")
        try:
            value = complex(amplitude)
        except OverflowError:  # an integer past the float range
            amplitude = value = _as_float(amplitude)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InvalidArgument(f"amplitudes must be finite, got {amplitude!r}")
        read.append((value, space.basis_index(ranking)))
    e = _scale(max(abs(v.real), abs(v.imag)) for v, _ in read)
    vector = np.zeros(space.dim, dtype=np.complex128)
    for value, k in read:
        vector[k] += complex(math.ldexp(value.real, e), math.ldexp(value.imag, e))
    norm = float(np.linalg.norm(vector))
    if not norm > 0.0:
        raise InvalidArgument("pure state needs at least one nonzero amplitude")
    return _unit_vector_state(space, vector / norm, eps)


def mixed_state(space: RankingSpace, terms: Iterable[tuple[float, Ranking]]) -> DensityOperator:
    """Diagonal density from weight terms; weights are normalized from any finite scale (``_scale``).

    A weight that is not a number (``check_number``) is refused.
    """
    read = []
    for weight, ranking in terms:
        check_number("mixture weight", weight)
        w = _as_float(weight)
        if not 0.0 <= w < math.inf:
            raise InvalidArgument(f"mixture weights must be finite and nonnegative, got {w}")
        read.append((w, space.basis_index(ranking)))
    e = _scale(w for w, _ in read)
    diag = np.zeros(space.dim, dtype=np.float64)
    for w, k in read:
        diag[k] += math.ldexp(w, e)
    total = float(diag.sum())
    if not total > 0.0:
        raise InvalidArgument("mixture needs positive total weight")
    return DensityOperator(space, diag / total)


def basis_state(space: RankingSpace, ranking: Ranking) -> DensityOperator:
    """Point mass on a single basis ranking: ``mixed_state(space, [(1.0, ranking)])``, bit for bit."""
    diag = np.zeros(space.dim)
    diag[space.basis_index(ranking)] = 1.0
    return DensityOperator(space, diag)


def check_distribution(weights: np.ndarray, eps: float) -> None:
    """Refuse a state's basis weights (finite float64, as ``DensityOperator`` keeps them) unless none is
    below -eps and they sum to 1 within eps."""
    if not float(weights.min()) >= -eps:
        raise InvalidArgument(f"diagonal has negative weight {float(weights.min())}")
    total = float(weights.sum())
    if not abs(total - 1.0) <= eps:
        raise InvalidArgument(f"diagonal weights sum to {total}, expected 1")


def diagonal_state(space: RankingSpace, diag: np.ndarray, eps: float = DEFAULT_EPS) -> DensityOperator:
    """Density with the given (already normalized) basis weights: the constructor refuses a wrong length or a
    non-finite weight, then ``check_distribution`` a weight below -eps or a sum off 1."""
    state = DensityOperator(space, diag)
    check_distribution(state.diagonal, eps)
    return state


def support_probability(state: DensityOperator, projector: Subspace, eps: float = DEFAULT_EPS) -> float:
    """Tr(P rho): total basis weight inside the subspace, clamped as ``support_probabilities`` does."""
    if projector.space != state.space:
        raise InvalidArgument("projector and state live on different spaces")
    return float(support_probabilities(state.diagonal, projector.indices[None, :], eps)[0])


def support_probabilities(weights: np.ndarray, index: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Total basis weight of one state inside each of many subspaces of one size.

    Row j of ``index`` lists subspace j's basis indices, and value j sums
    the state's basis ``weights`` (length d) there. A sum within eps below 0
    reads 0, and one within eps above 1 reads 1. Each row sum runs over
    contiguous gathered values, so a subspace's value has the same bits
    whichever other subspaces share the call. (Summing a stack of states in
    one 3-D gather does not: numpy may reorder that reduction.)
    """
    values = weights[index].sum(axis=1)
    listed = values.tolist()  # Python's min and max read a few values faster than numpy's reductions
    if not (0.0 <= min(listed, default=0.0) and max(listed, default=0.0) <= 1.0):
        values[(-eps <= values) & (values < 0.0)] = 0.0
        values[(1.0 < values) & (values <= 1.0 + eps)] = 1.0
    return values


def _total(weights: Iterable[float]) -> float:
    """Left-to-right float sum, the same bits on every Python (3.12's ``sum`` compensates)."""
    return reduce(add, weights, 0.0)


@dataclass(frozen=True, eq=False)
class ProfileState:
    """Joint ballot of n voters.

    Exactly one of ``factors`` (product of per-voter densities) and
    ``joint`` (classically correlated weights over basis-index tuples) is set.
    """

    space: RankingSpace
    factors: tuple[DensityOperator, ...] | None = None
    joint: tuple[tuple[float, tuple[int, ...]], ...] | None = None

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
    def correlated(cls, space: RankingSpace, terms: Sequence[tuple[float, Sequence[Ranking]]]) -> "ProfileState":
        """Profile from (weight, ranking tuple) terms, stored by basis index."""
        return cls.correlated_indices(space, [(w, tuple(map(space.basis_index, rs))) for w, rs in terms])

    @classmethod
    def correlated_indices(cls, space: RankingSpace, terms: Sequence[tuple[float, Sequence[int]]]) -> "ProfileState":
        """Profile from (weight, basis-index tuple) terms.

        The weights must be finite and positive numbers; they are normalized
        from any scale as a ballot's are (``_scale``, then divided by their
        ``_total``), and a weight that underflows to 0 there is refused. Every
        term must give one basis index in 0..d-1 per voter, as a sequence (a
        string is none).
        """
        if not terms:
            raise InvalidArgument("correlated profile needs at least one term")
        for _, key in terms:
            if isinstance(key, (str, bytes)) or not isinstance(key, (Sequence, np.ndarray)):
                raise InvalidArgument(f"a correlated key must be a sequence of basis indices, got {type(key).__name__}")
        n = len(terms[0][1])
        if n < 1:
            raise InvalidArgument("correlated profile needs at least one voter")
        for weight, _ in terms:
            check_number("correlated weight", weight)
        read = [(_as_float(weight), key) for weight, key in terms]
        for w, _ in read:
            if not 0.0 < w < math.inf:
                raise InvalidArgument(f"correlated weights must be {'finite' if w > 0.0 else 'positive'}, got {w}")
        e = _scale(w for w, _ in read)
        total = _total(math.ldexp(w, e) for w, _ in read)
        cleaned = []
        for weight, key in read:
            w = math.ldexp(weight, e) / total
            if not w > 0.0:
                raise InvalidArgument(f"correlated weights must be positive, got {w}")
            if len(key) != n:
                raise InvalidArgument("all correlated terms must rank the same voters")
            cleaned.append((w, tuple(key)))
        check_basis_indices((key for _, key in cleaned), space.dim)
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

    def voter_position(self, voter: int) -> int:
        """The 0-based factor or joint column of a 1-based voter index, which must be an integer in 1..n.

        A value with no ``__index__`` is refused (``check_voter_index``),
        integral floats such as 2.0 and strings such as "1" included, and so
        is a bool.
        """
        voter = check_voter_index(voter)
        if not 1 <= voter <= self.n_voters:
            raise InvalidArgument(f"voter index {voter} out of range 1..{self.n_voters}")
        return voter - 1

    def partial_ballot(self, voter: int) -> DensityOperator:
        """Marginal ballot of one voter (1-based index); a correlated profile's is its column's weights, normalized."""
        pos = self.voter_position(voter)
        if self.factors is not None:
            return self.factors[pos]
        # The column as integers (a bool key is basis index 0 or 1), its weights added in term order.
        column = np.array([key[pos] for _, key in self.joint], dtype=np.intp)
        diag = np.bincount(column, [w for w, _ in self.joint], self.space.dim)
        return DensityOperator(self.space, diag / diag.sum())

    def support_tuples(self, eps: float = DEFAULT_EPS) -> list[tuple[float, tuple[int, ...]]]:
        """Diagonal support as (weight, basis-index tuple) terms summing to 1, by ascending tuple.

        A support of more than DEFAULT_SUPPORT_CAP ranking combinations is
        refused, and so is a profile that keeps nothing above eps.
        """
        if self.factors is not None:
            per_voter = [ballot.diagonal_support(eps) for ballot in self.factors]
            if math.prod(map(len, per_voter)) > DEFAULT_SUPPORT_CAP:
                raise ResourceLimit(f"profile support exceeds {DEFAULT_SUPPORT_CAP} ranking combinations")
            # Each voter's entries ascend, so the tuples come out distinct and sorted.
            terms: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
            for entries in per_voter:
                terms = [(prefix + (k,), w * wk) for prefix, w in terms for k, wk in entries]
            total = _total(w for _, w in terms)
        else:
            combos: dict[tuple[int, ...], float] = {}
            for weight, key in self.joint:
                if weight <= eps:
                    continue
                combos[key] = combos.get(key, 0.0) + weight
            if len(combos) > DEFAULT_SUPPORT_CAP:
                raise ResourceLimit(f"profile support exceeds {DEFAULT_SUPPORT_CAP} ranking combinations")
            total = _total(combos.values())
            terms = sorted(combos.items())
        if not total > 0.0:  # nothing was kept
            raise InvalidArgument("profile has no diagonal support")
        return [(w / total, key) for key, w in terms]

    def substitute_ballot(self, voter: int, ballot: DensityOperator, eps: float = DEFAULT_EPS) -> "ProfileState":
        """Profile with one voter's ballot replaced (the others untouched).

        For correlated profiles the replacement enters through its basis
        weights above eps only, leaving the remaining voters' correlation
        intact: voter v's column is written, one term per (joint term w,
        ballot weight wk) in that order, of weight w * wk / (the sum of the
        wk). Terms are not merged, so a basis ballot keeps every weight's
        bits, and each substitution multiplies the terms by the ballot's
        support; the engine substitutes into sampled profiles only, never
        into a substituted one.
        """
        pos = self.voter_position(voter)
        if ballot.space != self.space:
            raise InvalidArgument("replacement ballot lives on a different space")
        if self.factors is not None:
            factors = list(self.factors)
            factors[pos] = ballot
            return ProfileState.product_of(factors)
        support = ballot.diagonal_support(eps)
        total = _total(wk for _, wk in support)
        joint = tuple(
            (w * wk / total, key[:pos] + (k,) + key[pos + 1 :]) for w, key in self.joint for k, wk in support
        )
        return ProfileState(self.space, joint=joint)

    def permuted(self, perms: Sequence[Sequence[int]]) -> "ProfileState":
        """The profile with voter v's basis weight k moved to index perms[v][k], form kept."""
        if self.factors is not None:
            return ProfileState.product_of([b.permuted(perms[v]) for v, b in enumerate(self.factors)])
        joint = tuple((w, tuple(perms[v][k] for v, k in enumerate(key))) for w, key in self.joint)
        return ProfileState(self.space, joint=joint)


def check_profile_space(profile: ProfileState, space: RankingSpace, owner: str) -> None:
    """Refuse a profile on another ranking space than ``space``, naming both alternative sets and ``owner``."""
    if profile.space != space:
        raise InvalidArgument(
            f"a profile on alternatives {profile.space.alternatives.names} is not on the "
            f"{owner} alternatives {space.alternatives.names}"
        )


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
            if not -eps <= p <= 1.0 + eps:
                raise InvalidArgument(f"probability for {name!r} out of [0, 1]: {p}")
            total += p
        if not abs(total - 1.0) <= eps:
            raise InvalidArgument(f"alternative probabilities sum to {total}, expected 1")


def alternative_state(
    alternatives: AlternativeSet,
    probabilities: Mapping[str, float],
    eps: float = DEFAULT_EPS,
) -> AlternativeState:
    """Validated distribution over alternatives; tiny negatives are clamped.

    A label outside the alternative set is refused (``AlternativeSet.index``),
    and so is a probability that is not a number (``check_number``).
    """
    for label in probabilities:
        alternatives.index(label)
    cleaned = {}
    for name in alternatives.names:
        p = probabilities.get(name, 0.0)
        check_number(f"probability for {name!r}", p)
        p = _as_float(p)
        cleaned[name] = 0.0 if -eps <= p < 0.0 else p
    state = AlternativeState(alternatives, cleaned)
    state.validate(eps)
    return state

