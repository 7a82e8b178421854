"""Quantum social welfare rules over the ranking space.

The centerpiece is the six-step quantum Condorcet rule: pairwise Condorcet
scores, a weak order, all of its linear extensions as a uniform mixture,
a delta-spread that gives every minority-supported pair a foothold, and a
final projection enforcing unanimously supported pairs. A dictatorship
and a deliberately manipulable veto rule serve as baselines for the axiom
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import hilbert
from .errors import InvalidArgument, QscError, ResourceLimit
from .hilbert import (
    DEFAULT_EPS,
    DensityOperator,
    ProfileState,
    RankingSpace,
    basis_state,
    check_basis_indices,
    check_eps,
    check_number,
    check_profile_space,
    check_voter_index,
    diagonal_state,
)
from .rankings import AlternativeSet, Ranking, basis_table, ranking_index


def default_delta(m: int) -> float:
    """Spread weight for m alternatives; must stay below 1/m^2."""
    if m == 3:
        return 0.05
    return 1.0 / (2 * m * m)


@dataclass(frozen=True)
class QcvParams:
    """Tunables for the quantum Condorcet rule."""

    delta: float
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        check_number("delta", self.delta)
        if not 0.0 < self.delta < 1.0:
            raise InvalidArgument(f"delta must lie in (0, 1), got {self.delta}")
        check_eps(self.eps)

    def check_alternatives(self, m: int) -> None:
        if self.delta >= 1.0 / (m * m):
            raise InvalidArgument(f"delta {self.delta} must be strictly below 1/{m * m} for {m} alternatives")

    @classmethod
    def for_alternatives(cls, m: int, eps: float = DEFAULT_EPS) -> "QcvParams":
        return cls(delta=default_delta(m), eps=eps)


# A batch of (profile, voter or None) requests -> one result per request.
ResponsesHook = Callable[[Sequence[tuple[ProfileState, int | None]]], Iterable[np.ndarray]]


@dataclass(frozen=True, eq=False)
class WelfareRule:
    """Named map from a joint ballot profile to a societal ranking density.

    ``responses``, when set, declares that the output's basis weights are
    affine in each voter's basis weights while the other voters stay fixed,
    so mixing two ballots for one voter mixes the outputs the same way;
    weights the support filter drops (at most eps) are exempt. It answers a
    batch of requests in one call: ``responses(requests)`` takes a sequence
    of ``(profile, voter)`` pairs and returns an iterable with one result
    per request, in order. For ``(profile, None)`` the result is the d basis
    weights of ``evaluate(profile)``; for ``(profile, v)`` it is the d x d
    basis weights of the output, row k with voter v's ballot replaced by
    basis ranking k. A basis ballot puts weight exactly 1 on one ranking, so
    it substitutes the same way at any eps below 1, and no request carries
    one. The axiom engine scores a batch of sampled profiles with one call,
    then the basis responses of every voter whose clause fires with one
    more, and searches dishonest ballots at those d vertices only (see
    ``axioms``).
    """

    name: str
    fn: Callable[[ProfileState], DensityOperator]
    responses: ResponsesHook | None = None

    def evaluate(self, profile: ProfileState) -> DensityOperator:
        return self.fn(profile)


_KERNEL_CELLS = 1 << 16  # signature rows x m! per scoring group, and so per kernel call


def _classes(n: int) -> np.ndarray:
    """The class of each tally t = 0..n of one pair among n voters (intp).

    A tally t counts the voters placing x above y, for a pair x < y in
    ``np.triu_indices`` order. Its class is 0 at t = 0, 1 below n/2, 2 at
    n/2, 3 above n/2 and 4 at t = n, and a tally's classes are its majority
    signature: the kernel reads a profile only through them. Classes are
    intp, as tallies are: int8 arithmetic runs numpy loops no other code
    runs, which cost about 0.1 MB of peak RSS in a short process.
    """
    return np.array([0, *(1 + (2 * t >= n) + (2 * t > n) for t in range(1, n)), 4], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class _Stages:
    """The kernel's stages for k majority signatures, each array with one row per signature."""

    wins: np.ndarray  # k x m: Condorcet scores, the y that at least half the voters place x above
    extension: np.ndarray  # k x d bool: the linear extensions of the weak order of wins
    present: np.ndarray  # k x m x m bool: some voter places x above y
    unanimous: np.ndarray  # k x m x m bool: every voter places x above y
    keep: np.ndarray  # k x d bool: the rankings keeping every unanimous pair
    sigma: np.ndarray  # k x d: sigma2 on the kept rankings, 0 elsewhere; ``_projected`` makes it sigma3 in place
    running: np.ndarray  # C(m,2) + 1: the spread of a ranking covering 0..C(m,2) present pairs


def _qcv_stages(alternatives: AlternativeSet, signatures: np.ndarray, params: QcvParams) -> _Stages:
    """The six-step rule up to sigma2 for each majority signature (k x C(m,2), see ``_classes``).

    A pair's class read the other way round is 4 minus its class. At least
    half the voters place x above y from class 2 on, every voter at class 4,
    and some voter from class 1 on. Every indicator over ordered pairs
    (x, y) is an m x m mask, and the pairs a ranking breaks in the two order
    masks are one float32 product with the basis table's ``orients`` (two
    float32 per signature-row cell).
    Sigma1 is uniform over the extensions; the spread adds delta / (d/2) once
    per covered pair, a pair being covered when some voter orients it as the
    ranking does. A kept ranking breaks no unanimous pair, and every other
    pair some voter orients each way, so it covers all C(m,2) pairs: its
    spread is the one constant ``running[C(m,2)]``. The rows carry sigma2
    on the kept rankings only, 0 elsewhere; ``qcv_basis`` reads sigma2 on the
    others from ``running``.
    """
    params.check_alternatives(alternatives.m)
    basis = basis_table(alternatives)
    d, m, _ = basis.above.shape
    k = len(signatures)
    classes = np.zeros((k, m, m), dtype=np.intp)  # the class of the voters placing x above y
    x, y = basis.upper
    classes[:, x, y] = signatures
    classes[:, y, x] = 4 - signatures
    wins = (classes >= 2).sum(axis=2)
    strict = wins[:, :, None] > wins[:, None, :]
    unanimous = classes == 4
    present = classes >= 1
    n_any = present.sum(axis=(1, 2))  # at most m(m-1), and delta < 1/m^2, so the base weight is above 1/m
    # A ranking breaks the order of (x, y) when it places y above x, so the order masks are read flipped.
    masks = np.concatenate([strict, unanimous]).transpose(0, 2, 1).reshape(2 * k, m * m)
    extension, keep = (masks.astype(np.float32) @ basis.orients).reshape(2, k, d) == 0.0  # no broken pair
    # One add of delta / (d/2) per covered pair, in order, as the step-by-step rule adds them.
    running = np.concatenate(([0.0], np.cumsum(np.full(len(x), params.delta / (d // 2)))))
    sigma = np.where(keep, running[len(x)], 0.0)  # the spread of a kept ranking
    base = (1.0 - n_any * params.delta) * (1.0 / extension.sum(axis=1))
    np.add(sigma, base[:, None], out=sigma, where=extension & keep)
    return _Stages(wins, extension, present, unanimous, keep, sigma, running)


def _projected(stages: _Stages) -> np.ndarray:
    """Sigma3 from the stages, in place of their sigma2.

    The unanimous pairs are enforced by one renormalization rather than one
    per pair, which moves weights by at most a few ulp. A row without
    unanimous pairs keeps every ranking and passes unchanged. A row with
    one is divided by its kept mass, which lies in [1 - n_any * delta,
    1 - (C(m,2) - 1) * delta], so it needs neither a zero-mass check nor a
    clamp near 1. The lower bound: on a profile's signature a unanimous
    pair (x, y) gives x more Condorcet wins than y (each voter placing y
    above z places x above z), so every extension is kept, and with them
    the base weight 1 - n_any * delta > 1/m. The upper bound, met with one
    unanimous pair, is checked on every closed class vector at m = 3 to 5
    (``tests/test_status.py``).
    """
    sigma = stages.sigma
    mass = sigma.sum(axis=1)
    mass[~stages.unanimous.any(axis=(1, 2))] = 1.0
    sigma /= mass[:, None]
    return sigma


def _qcv_rows(alternatives: AlternativeSet, signatures: np.ndarray, params: QcvParams) -> np.ndarray:
    """The six-step rule's sigma3 weights for each majority signature (k x C(m,2) -> k x d)."""
    return _projected(_qcv_stages(alternatives, signatures, params))


@dataclass(frozen=True, eq=False)
class QcvStages:
    """The stages of one basis-profile Condorcet evaluation, as ``qcv`` computes them."""

    scores: dict[str, int]
    tiers: tuple[tuple[str, ...], ...]  # labels of equal score, best score first, each tier sorted
    extensions: tuple[str, ...]  # "a>b>c" strings, in basis order
    pairs_any: tuple[tuple[str, str], ...]  # (x, y) some voter places x above y, sorted
    pairs_all: tuple[tuple[str, str], ...]  # (x, y) every voter places x above y, sorted
    sigma1: DensityOperator
    sigma2: DensityOperator
    sigma3: DensityOperator


def qcv_basis(alternatives: AlternativeSet, indices: Sequence[int], params: QcvParams) -> QcvStages:
    """The kernel's stages for the basis profile where voter v casts basis ranking ``indices[v]``.

    A read-out of ``_qcv_stages``, so ``evaluate --stages`` prints what
    ``qcv`` computes. Scores are the kernel's wins (a tie credits both
    sides), tiers group the alternatives by descending score, the extensions
    and both pair sets are its masks, sigma1 is uniform over the extensions,
    sigma2 is the row before the projection, and sigma3 is bit for bit the
    row ``_qcv_rows`` gives for the tuple's signature.
    """
    table = basis_table(alternatives)
    if len(indices) == 0:
        raise InvalidArgument("a profile needs at least one voter")
    check_basis_indices([indices], len(table.rankings))
    idx = np.array([indices], dtype=np.intp)
    stages = _qcv_stages(alternatives, _classes(idx.shape[1])[table.pairs[idx].sum(axis=1)], params)
    # The kernel's row is sigma2 on the kept rankings, which hold every extension; on the others sigma2 is
    # the spread of the pairs each covers.
    covered = (table.above & stages.present[0]).sum(axis=(1, 2))
    sigma2 = np.where(stages.keep[0], stages.sigma[0], stages.running[covered])
    sigma3 = _projected(stages)[0]
    names = alternatives.names
    scores = dict(zip(names, stages.wins[0].tolist()))
    tiers = tuple(
        tuple(sorted(x for x in names if scores[x] == score))
        for score in sorted(set(scores.values()), reverse=True)
    )
    extension = stages.extension[0]

    def labelled(mask: np.ndarray) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((names[x], names[y]) for x, y in zip(*np.nonzero(mask))))

    space = RankingSpace(alternatives)
    return QcvStages(
        scores=scores,
        tiers=tiers,
        extensions=tuple(table.strings[k] for k in np.flatnonzero(extension)),
        pairs_any=labelled(stages.present[0]),
        pairs_all=labelled(stages.unanimous[0]),
        sigma1=DensityOperator(space, extension / extension.sum()),
        sigma2=DensityOperator(space, sigma2),
        sigma3=DensityOperator(space, sigma3),
    )


@lru_cache(maxsize=64)
def _packing(alternatives: AlternativeSet, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How n voters' tallies pack into integers: place values, each ranking's packed ``pairs`` row, zero shift.

    A tally packs into one integer, base n + 1, so adding packed rows adds
    tallies and keeps their order; Python ints hold it past int64. Built
    once per (alternatives, n) and kept, as the basis table is.
    """
    pairs = basis_table(alternatives).pairs
    powers = (n + 1) ** np.arange(pairs.shape[1], dtype=np.int64 if (n + 1) ** pairs.shape[1] < 2**63 else object)
    packing = powers, pairs @ powers, np.zeros((1, pairs.shape[1]), bool)
    for table in packing:
        table.setflags(write=False)  # shared by every request on (alternatives, n)
    return packing


@dataclass(eq=False)
class _Request:
    """One request as (weight, tally) terms, and its result while its pieces are mixed.

    A term's tally counts, for each pair x < y, the voters placing x above y
    (``_folded``). A product profile folds each voter's basis weights above
    eps, and a correlated one its raw joint terms above eps, in order. A
    profile request folds every voter and has one column. A voter request
    (the voter in 1..n) folds the other voters, skipping the voter's factor
    or dropping its joint column, and has d columns: a basis ballot enters
    every term with weight exactly 1, so column k adds basis ranking k's
    ``pairs`` row to every tally.
    """

    space: RankingSpace
    n: int  # the profile's voters
    weights: np.ndarray  # T, summing to 1
    codes: np.ndarray  # T: the packed tallies (``_packing``), ascending
    shifts: np.ndarray  # columns x C(m,2): a zero row, or the d ``pairs`` rows
    result: np.ndarray | None = None

    @classmethod
    def of(cls, params: QcvParams, profile: ProfileState, voter: int | None) -> "_Request":
        space, n = profile.space, profile.n_voters
        powers, packed, zero = _packing(space.alternatives, n)
        codes, weights = np.zeros(1, powers.dtype), np.ones(1)
        pos = None if voter is None else profile.voter_position(voter)
        if profile.joint is not None:
            kept = [(w, key) for w, key in profile.joint if w > params.eps]
            keys = np.array([key for _, key in kept], dtype=np.intp).reshape(len(kept), n)
            keys = np.delete(keys, [] if pos is None else pos, axis=1)
            codes, weights = _folded(codes, weights, packed[keys].sum(axis=1), np.array([w for w, _ in kept]))
        for ballot in (b for v, b in enumerate(profile.factors or ()) if v != pos):
            ks = (ballot.diagonal > params.eps).nonzero()[0]
            codes, weights = _folded(codes, weights, packed[ks], ballot.diagonal[ks])
        total = weights.sum()
        if not total > 0.0:  # nothing was kept
            raise InvalidArgument("profile has no diagonal support")
        return cls(space, n, weights / total, codes, zero if voter is None else basis_table(space.alternatives).pairs)


def _folded(codes: np.ndarray, weights: np.ndarray, rows: np.ndarray, row_weights: np.ndarray):
    """The terms after one more voter: each packed tally plus each of the voter's rows, weights multiplied.

    Equal tallies merge, by ascending tally, their weights added onto 0.0
    in the order the terms come (tally-major), as ``np.unique`` and
    ``np.bincount`` would add them. One argsort orders the terms and a
    comparison of neighbours finds the tallies that meet. Only when two
    meet does ``np.bincount`` add the weights, each term binned by its
    tally's place in input order; otherwise each weight is added to 0.0 in
    sorted order, which gives the same bits. New terms come a cap's worth
    at a time, so no more than about twice ``hilbert.DEFAULT_SUPPORT_CAP``
    terms are alive, and more distinct tallies than the cap are refused as
    they appear. One row only shifts the tallies, which keeps them distinct
    and in order: merging would change no bit.
    """
    if len(rows) == 1:
        return codes + rows[0], weights * row_weights[0]
    cap = hilbert.DEFAULT_SUPPORT_CAP
    out, summed, step = codes[:0], weights[:0], max(1, cap // len(codes))  # a cap's worth of new terms a merge
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        terms = np.concatenate([out, (codes[:, None] + rows[part]).ravel()])
        term_weights = np.concatenate([summed, (weights[:, None] * row_weights[part]).ravel()])
        # The default kind, as np.unique's: a stable sort loads numpy code that nothing else runs.
        order = terms.argsort()
        terms = terms[order]
        fresh = np.concatenate(([True], terms[1:] != terms[:-1]))  # the first term of each distinct tally
        out = terms[fresh]
        if len(out) > cap:
            raise ResourceLimit(f"profile support exceeds {cap} distinct tallies")
        if len(out) == len(terms):
            summed = term_weights[order] + 0.0
        else:
            place = np.empty_like(order)
            place[order] = np.cumsum(fresh) - 1
            summed = np.bincount(place, term_weights)
    return out, summed


def _scored(params: QcvParams, requests: Iterable[tuple[ProfileState, int | None]]) -> Iterator[np.ndarray]:
    """``qcv``'s basis weights for each request, in order: the rule's batch hook.

    A request (profile, None) gives the d weights of ``qcv(profile)``; a
    request (profile, v) gives the d x d weights of ``qcv_responses(profile,
    v)``, row k with voter v's ballot replaced by basis ranking k. Each
    request (``_Request``) is cut into pieces of terms, and consecutive
    pieces of one kind (ranking space, electorate size and columns) are
    grouped, up to ``_KERNEL_CELLS`` signature-row cells a group (a piece
    holds at least one term: 720 x 720 cells for a voter request at m=6).
    ``_mixed`` scores and mixes a group. A result is yielded once its
    group is mixed, so no more than one group's rows and results are alive
    at once, besides the caller's.

    A ``QscError`` (the support cap, a kernel refusal, a result that is not
    a distribution) is raised only after every earlier request's result has
    been yielded, as if the requests were answered one at a time.
    """
    group, cells = [], 0  # pieces (request, first term, stop), and their signature-row cells
    for profile, voter in requests:
        try:
            request = _Request.of(params, profile, voter)
        except QscError:
            yield from _mixed(params, group)
            raise
        terms, width = len(request.weights), len(request.shifts) * request.space.dim  # cells a term
        step = max(1, _KERNEL_CELLS // width)
        for first in range(0, terms, step):
            size = (min(first + step, terms) - first) * width
            if group and (cells + size > _KERNEL_CELLS or _kind(request) != _kind(group[0][0])):
                yield from _mixed(params, group)
                group, cells = [], 0
            group.append((request, first, min(first + step, terms)))
            cells += size
    yield from _mixed(params, group)


def _kind(request: _Request) -> tuple:
    """What the pieces of one group share: ranking space, electorate size and columns."""
    return request.space, request.n, len(request.shifts)


def _mixed(params: QcvParams, group: list[tuple[_Request, int, int]]) -> Iterator[np.ndarray]:
    """Score a group's signatures, mix its pieces in order, and yield each request it completes.

    Row b of a request is the sum, over terms t in order, of ``weights[t]``
    times the six-step rule's sigma3 row for term t's signature in column
    b. Signatures are keyed as base-5 numbers, and one ``_qcv_rows`` call
    scores the group's distinct ones. The pieces are of one kind
    (``_kind``), so their tallies are unpacked, their signatures keyed,
    their rows gathered and weighed and their results checked in one pass
    each; only the sum over a piece's terms runs piece by piece. A request
    whose result is not a distribution is refused when it is reached. The
    kernel call refuses only a delta too large for the space's m
    (``QcvParams.check_alternatives``), so it refuses every signature of the
    group; a group holds one ranking space, so its first request is the
    first refused, and every request before it has been yielded.
    """
    if not group:
        return
    (lead, _, _), eps = group[0], params.eps
    space, columns = lead.space, len(lead.shifts)
    fives = 5 ** np.arange(lead.shifts.shape[1], dtype=np.int64)  # 5^15 < 2^63
    codes = np.concatenate([request.codes[first:stop] for request, first, stop in group])
    tallies = (codes[:, None] // _packing(space.alternatives, lead.n)[0] % (lead.n + 1)).astype(np.intp)
    # Term t's signature in column b: the classes of its tally plus the column's shift.
    distinct, inverse = np.unique(_classes(lead.n)[tallies[:, None] + lead.shifts] @ fives, return_inverse=True)
    table = _qcv_rows(space.alternatives, distinct[:, None] // fives % 5, params)
    parts = table[inverse].reshape(len(codes), columns, space.dim)
    parts *= np.concatenate([request.weights[first:stop] for request, first, stop in group])[:, None, None]
    results, start = np.empty((len(group), columns, space.dim)), 0
    for result, (request, first, stop) in zip(results, group):
        if first:
            parts[start] += request.result
        # Along the outer axis numpy adds one term at a time, in order, as
        # ``acc += weight * row`` would: the bits do not depend on the pieces.
        np.add.reduce(parts[start : start + stop - first], axis=0, out=result)
        start += stop - first
    rows = results.reshape(-1, space.dim)
    distributions = ((rows.min(axis=1) >= -eps) & (np.abs(rows.sum(axis=1) - 1.0) <= eps)).reshape(-1, columns)
    for (request, _, stop), result, ok in zip(group, results, distributions.all(axis=1)):
        request.result = result
        if stop == len(request.weights):
            if not ok:
                for row in result:
                    diagonal_state(space, row, eps)  # raises at the first that is not a distribution
            # A profile request has one row; a voter request has d = m! >= 2.
            yield result[0] if len(result) == 1 else result


def qcv(profile: ProfileState, params: QcvParams) -> DensityOperator:
    """Quantum Condorcet rule on a general profile.

    The profile's diagonal support is folded voter by voter into (weight,
    tally) terms, a tally counting for each pair the voters placing x above
    y; each term is scored by the six-step basis rule through its majority
    signature, and the results are mixed with the term weights (``_scored``
    with one request). Off-diagonal ballot coherences do not enter: the rule
    consumes basis statistics only.
    """
    (weights,) = _scored(params, [(profile, None)])
    return DensityOperator(profile.space, weights)


def qcv_responses(profile: ProfileState, voter: int, params: QcvParams) -> np.ndarray:
    """``qcv``'s basis weights with one voter's ballot replaced by each basis ranking (d x d).

    Row k is bit for bit ``qcv(profile.substitute_ballot(voter, basis_k),
    params).diagonal``: the substituted profiles share the other voters'
    fold and differ only by ranking k's ``pairs`` row in every tally
    (``_Request``), and their rows are mixed by ``qcv``'s own ``_scored``.
    On a correlated profile the substitution keeps every joint term's
    weight, so both drop the same terms, each of weight at most eps. A
    voter outside 1..n is refused.
    """
    (responses,) = _scored(params, [(profile, voter)])
    return responses


def qcv_rule(params: QcvParams) -> WelfareRule:
    return WelfareRule(
        "qcv",
        lambda p: qcv(p, params),
        responses=lambda requests: _scored(params, requests),
    )


def dictator_rule(voter: int) -> WelfareRule:
    """Welfare rule that returns one voter's marginal ballot verbatim; the voter must be a positive integer."""
    voter = check_voter_index(voter)
    if voter < 1:
        raise InvalidArgument(f"voter index must be positive, got {voter}")

    def responses(requests: Sequence[tuple[ProfileState, int | None]]) -> Iterator[np.ndarray]:
        for profile, scanned in requests:
            d = profile.space.dim
            if scanned is not None and profile.voter_position(scanned) == voter - 1:
                yield np.eye(d)
                continue
            # Whatever basis ranking another voter casts, the dictator's marginal stays.
            marginal = profile.partial_ballot(voter).diagonal
            yield marginal if scanned is None else np.tile(marginal, (d, 1))

    return WelfareRule(f"dictator:{voter}", lambda p: p.partial_ballot(voter), responses=responses)


def veto_rule(pet_ranking: Ranking, eps: float = DEFAULT_EPS) -> WelfareRule:
    """Manipulable control rule.

    If voter 1's ballot is exactly the point mass on ``pet_ranking`` the
    society adopts it; otherwise voter 2's ballot is returned. Lying about
    conviction therefore pays, which is what the axiom engine must detect.
    An eps outside [MIN_EPS, MAX_EPS] is refused (``check_eps``), and so is a
    profile on other alternatives than the pet ranking's.
    """
    check_eps(eps)
    space = RankingSpace(pet_ranking.alternatives)
    pet_index = ranking_index(pet_ranking)

    def evaluate(profile: ProfileState) -> DensityOperator:
        check_profile_space(profile, space, "veto rule's")
        if profile.n_voters < 2:
            raise InvalidArgument("veto rule needs at least two voters")
        first = profile.partial_ballot(1)
        if float(first.diagonal[pet_index]) >= 1.0 - eps:
            return basis_state(space, pet_ranking)
        return profile.partial_ballot(2)

    return WelfareRule(f"veto:{pet_ranking.to_string()}", evaluate)
