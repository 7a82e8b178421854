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
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    support_probabilities,
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


# Society's status on a target, as a ``statuses`` hook gives it: qcv's hook decides exactly whether its
# value is 0, strictly between 0 and 1, or 1, and any other hook may read the value against eps (``status_of``).
EXCLUDED, UNDECIDED, CERTAIN = 0, 1, 2


def status_of(values: np.ndarray, eps: float) -> np.ndarray:
    """The status each value reads as against eps (int8): excluded at most eps, certain at least 1 - eps
    (eps is below 1/2), and undecided between, so that a clause reads the status as it holds the value."""
    return (values > eps).astype(np.int8) + (values >= 1.0 - eps)


class Statuses(NamedTuple):
    """Society's status on every target of one request (int8 ``EXCLUDED``, ``UNDECIDED`` or ``CERTAIN``).

    ``pairs[..., x, y]`` is the status of x ranked above y (its diagonal is
    no target) and ``winners[..., x]`` that of x winning. A profile
    request's arrays are m x m and m; a voter request's have a leading axis
    of d, row k with the voter's ballot replaced by basis ranking k.
    """

    pairs: np.ndarray
    winners: np.ndarray


def _read_statuses(alternatives: AlternativeSet, weights: np.ndarray, eps: float) -> Statuses:
    """The statuses of a state's basis weights (length d), each target's value read against eps (``status_of``)."""
    table, m = basis_table(alternatives), alternatives.m
    pairs = np.full((m, m), EXCLUDED, dtype=np.int8)  # the diagonal is no target
    pairs[~np.eye(m, dtype=bool)] = status_of(support_probabilities(weights, table.pair_index, eps), eps)
    return Statuses(pairs, status_of(support_probabilities(weights, table.winner_rows, eps), eps))


# A batch of (profile, voter or None) requests and the check's eps -> one result per request.
StatusesHook = Callable[[Sequence[tuple[ProfileState, int | None]], float], Iterable[Statuses]]


@dataclass(frozen=True, eq=False)
class WelfareRule:
    """Named map from a joint ballot profile to a societal ranking density.

    ``statuses``, when set, declares that the output's basis weights are
    affine in each voter's basis weights while the other voters stay fixed,
    so mixing two ballots for one voter mixes the outputs the same way;
    weights the support filter drops (at most eps) are exempt. It answers a
    batch of requests in one call: ``statuses(requests, eps)`` takes a
    sequence of ``(profile, voter)`` pairs and the check's eps, and returns
    an iterable with one ``Statuses`` per request, in order. For ``(profile,
    None)`` the result is the status of ``evaluate(profile)`` on every
    target; for ``(profile, v)`` it has d rows, row k with voter v's ballot
    replaced by basis ranking k. A basis ballot puts weight exactly 1 on one
    ranking, so it substitutes the same way at any eps below 1, and no
    request carries one. The axiom engine reads society's side of every
    clause from a batch of sampled profiles with one call, then the rows of
    every voter whose clause fires with one more, searches dishonest ballots
    at those d vertices only (see ``axioms``), and evaluates the rule only to
    write a record. ``qcv_rule`` carries one that decides each status
    exactly and reads no eps, and ``dictator_rule`` one that reads the
    dictator's marginal against eps.
    """

    name: str
    fn: Callable[[ProfileState], DensityOperator]
    statuses: StatusesHook | None = None

    def evaluate(self, profile: ProfileState) -> DensityOperator:
        return self.fn(profile)


_KERNEL_CELLS = 1 << 16  # terms x m! per kernel call of ``qcv``, and counts per group of ``_decided``


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
def _packing(alternatives: AlternativeSet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """How n voters' tallies pack into integers: place values, and each ranking's packed ``pairs`` row.

    A tally packs into one integer, base n + 1, so adding packed rows adds
    tallies and keeps their order; Python ints hold it past int64. Built
    once per (alternatives, n) and kept, as the basis table is.
    """
    pairs = basis_table(alternatives).pairs
    powers = (n + 1) ** np.arange(pairs.shape[1], dtype=np.int64 if (n + 1) ** pairs.shape[1] < 2**63 else object)
    packing = powers, pairs @ powers
    for table in packing:
        table.setflags(write=False)  # shared by every profile on (alternatives, n)
    return packing


def _fold(params: QcvParams, profile: ProfileState) -> tuple[np.ndarray, np.ndarray]:
    """The profile as (packed tally, weight) terms: tallies ascending (``_packing``), weights summing to 1.

    A term's tally counts, for each pair x < y, the voters placing x above
    y (``_folded``). A product profile folds each voter's basis weights
    above eps, and a correlated one its raw joint terms above eps, in
    order. A profile that keeps nothing is refused.
    """
    n = profile.n_voters
    powers, packed = _packing(profile.space.alternatives, n)
    codes, weights = np.zeros(1, powers.dtype), np.ones(1)
    if profile.joint is not None:
        kept = [(w, key) for w, key in profile.joint if w > params.eps]
        keys = np.array([key for _, key in kept], dtype=np.intp).reshape(len(kept), n)
        codes, weights = _folded(codes, weights, packed[keys].sum(axis=1), np.array([w for w, _ in kept]))
    for ballot in profile.factors or ():
        ks = (ballot.diagonal > params.eps).nonzero()[0]
        codes, weights = _folded(codes, weights, packed[ks], ballot.diagonal[ks])
    total = weights.sum()
    if not total > 0.0:  # nothing was kept
        raise InvalidArgument("profile has no diagonal support")
    return codes, weights / total


def _folded(codes: np.ndarray, weights: np.ndarray, rows: np.ndarray, row_weights: np.ndarray):
    """The terms after one more voter: each packed tally plus each of the voter's rows, weights multiplied.

    Equal tallies merge (``np.unique``), by ascending tally, their weights
    added (``np.bincount``) in the order the terms come, tally-major. New
    terms come a cap's worth at a time, so no more than about twice
    ``hilbert.DEFAULT_SUPPORT_CAP`` terms are alive, and more distinct
    tallies than the cap are refused as they appear. One row only shifts
    the tallies, which keeps them distinct and in order: merging would
    change no bit.
    """
    if len(rows) == 1:
        return codes + rows[0], weights * row_weights[0]
    cap = hilbert.DEFAULT_SUPPORT_CAP
    out, summed, step = codes[:0], weights[:0], max(1, cap // len(codes))  # a cap's worth of new terms a merge
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        out, inverse = np.unique(np.concatenate([out, (codes[:, None] + rows[part]).ravel()]), return_inverse=True)
        if len(out) > cap:
            raise ResourceLimit(f"profile support exceeds {cap} distinct tallies")
        summed = np.bincount(inverse, np.concatenate([summed, (weights[:, None] * row_weights[part]).ravel()]))
    return out, summed


def qcv(profile: ProfileState, params: QcvParams) -> DensityOperator:
    """Quantum Condorcet rule on a general profile.

    The profile's diagonal support is folded voter by voter into (weight,
    tally) terms (``_fold``); each term is scored by the six-step basis
    rule through its majority signature, and the rows are mixed with the
    term weights. Off-diagonal ballot coherences do not enter: the rule
    consumes basis statistics only. The terms are scored ``_KERNEL_CELLS``
    signature-row cells at a time (at least one term), each piece's
    distinct signatures, keyed as base-5 numbers, in one ``_qcv_rows`` call.
    Along the outer axis numpy adds one term at a time, in order, as ``acc
    += weight * row`` would, and each piece starts from the sum before it:
    the bits do not depend on the pieces. A result that is not a
    distribution within eps is refused.
    """
    space, n = profile.space, profile.n_voters
    codes, weights = _fold(params, profile)
    powers = _packing(space.alternatives, n)[0]
    fives = 5 ** np.arange(len(powers), dtype=np.int64)  # 5^15 < 2^63
    step, result = max(1, _KERNEL_CELLS // space.dim), None
    for first in range(0, len(codes), step):
        tallies = (codes[first : first + step, None] // powers % (n + 1)).astype(np.intp)
        distinct, inverse = np.unique(_classes(n)[tallies] @ fives, return_inverse=True)
        parts = _qcv_rows(space.alternatives, distinct[:, None] // fives % 5, params)[inverse]
        parts *= weights[first : first + step, None]
        if result is not None:
            parts[0] += result
        result = np.add.reduce(parts, axis=0)
    return diagonal_state(space, result, params.eps)


@dataclass(frozen=True, eq=False)
class _Lattice:
    """The 2^m sets of alternatives as bit masks (bit z for alternative z), and the tables ``_decided`` reads.

    Ranking k's set above x holds the alternatives it places above x.
    """

    counts: np.ndarray  # d x m*2^m, 0/1: ranking k's set above x contains set c (column x * 2^m + c)
    inside: np.ndarray  # m x 2^m x d: ``counts`` by x, transposed
    zeta: np.ndarray  # 2^m x 2^m, 0/1: set s contains set c (row s, column c)
    parity: np.ndarray  # 2^m: (-1)^|c|
    above: np.ndarray  # d x m intp: ranking k's set above x


@lru_cache(maxsize=64)
def _lattice(alternatives: AlternativeSet) -> _Lattice:
    table = basis_table(alternatives)
    d, m, _ = table.above.shape
    sets = np.arange(1 << m)
    above = (table.above.transpose(0, 2, 1) @ 2.0 ** np.arange(m)).astype(np.intp)
    zeta = ((sets[:, None] & sets) == sets).astype(float)
    parity = np.ones(1)  # one bit at a time
    for _ in range(m):
        parity = np.concatenate([parity, -parity])
    counts = zeta[above]  # d x m x 2^m
    return _Lattice(
        counts=counts.reshape(d, -1),
        inside=counts.transpose(1, 2, 0).copy(),
        zeta=zeta,
        parity=parity,
        above=above,
    )


def _reached(
    params: QcvParams, lattice: _Lattice, group: list[tuple[ProfileState, int | None]]
) -> tuple[np.ndarray, int]:
    """For each request of a group on one space and electorate, the sets reached above each x, in zeta form
    (k x m x 2^m), and how many requests lead the first whose kept support is empty (k when none is).

    A request's position is None or its voter's factor or joint column.
    The kept support is what ``_fold`` folds: each voter's basis weights
    above eps, or a correlated profile's joint keys above eps. A
    term is one kept ranking per voter, and it reaches, for each x, the set
    of alternatives all its voters place above x; a voter request leaves
    the voter out, so with no voter left every x reaches the set of all
    alternatives. Row x holds the zeta transform of a positive weight on
    each reached set: entry c sums the weights of the reached sets that
    contain set c. A correlated profile weighs each set by its kept joint
    keys. A product profile weighs it by its terms, folded one voter at a
    time: a term and a kept ranking of the next voter both contain c in as
    many ways as the product of their counts, so each voter multiplies the
    row by its counts. Before a product could pass 2^52 / 2^m, where the
    sums ``_decided`` reads stop being exact in float64, the weights are
    reset to 1 on each reached set (the Mobius inversion, then ``zeta``).
    """
    m, sets = lattice.above.shape[1], len(lattice.zeta)
    n = group[0][0].n_voters
    reached, empty = np.zeros((len(group), m, sets)), np.zeros(len(group), dtype=bool)
    product = [i for i, (profile, _) in enumerate(group) if profile.joint is None]
    if product:
        diagonals = np.array([ballot.diagonal for i in product for ballot in group[i][0].factors])
        counts = ((diagonals > params.eps) @ lattice.counts).reshape(len(product), n, m, sets)
        left_out = [(row, group[i][1]) for row, i in enumerate(product) if group[i][1] is not None]
        if left_out:
            counts[tuple(zip(*left_out))] = 1.0  # the set of all alternatives contains every set
        kept = counts[:, :, 0, 0]  # each voter's kept rankings
        empty[product] = (kept < 0.5).any(axis=1)
        folded, bound = np.ones((len(product), m, sets)), 1.0  # the set of all alternatives
        for voter, most in enumerate(kept.max(axis=0).tolist()):
            if bound * most * sets >= 2.0**52:
                # The Mobius inversion of zeta, (-1)^|s - c| = (-1)^|s| (-1)^|c| where s contains c.
                mobius = lattice.zeta * np.outer(lattice.parity, lattice.parity)
                folded, bound = (folded @ mobius > 0.5) @ lattice.zeta, float(sets)
            folded *= counts[:, voter]
            bound *= most
        reached[product] = folded
    joint = [(i, pos, [key for w, key in profile.joint if w > params.eps]) for i, (profile, pos) in enumerate(group)
             if profile.joint is not None]
    empty[[i for i, _, keys in joint if not keys]] = True
    if any(keys for _, _, keys in joint):
        terms = [(i, pos) for i, pos, keys in joint for _ in keys]
        rankings = np.array([key for _, _, keys in joint for key in keys], dtype=np.intp).reshape(len(terms), n)
        above = lattice.above[rankings]  # terms x n x m
        left_out = [(t, pos) for t, (_, pos) in enumerate(terms) if pos is not None]
        if left_out:
            above[tuple(zip(*left_out))] = sets - 1  # the set of all alternatives
        counted = [(i, len(keys)) for i, _, keys in joint if keys]  # terms come request by request
        starts = list(accumulate([count for _, count in counted[:-1]], initial=0))
        reached[[i for i, _ in counted]] = np.add.reduceat(lattice.zeta[np.bitwise_and.reduce(above, axis=1)], starts)
    return reached, int(np.argmax(empty)) if empty.any() else len(group)


def _status_rows(unanimous: np.ndarray, certain: np.ndarray, free: np.ndarray) -> Statuses:
    """Statuses from ``unanimous[..., x, y]``, every voter of every kept term places x above y,
    ``certain[..., x]``, x is so above every other alternative, and ``free[..., x]``, some kept term has
    no alternative every voter places above x.

    A term's value on a target is exactly 1 or 0 when its unanimous pairs
    decide the target, and strictly between otherwise (the status lemma,
    ``tests/test_status.py``), and every kept term has a positive weight.
    So a pair is certain when it is unanimous on every term, and excluded
    when its reverse is; a winner is certain when it is unanimously above
    every other alternative on every term (and so is free), and excluded
    when no term is free of an alternative unanimously above it.
    """
    pairs = UNDECIDED + unanimous.view(np.int8) - unanimous.swapaxes(-1, -2).view(np.int8)
    return Statuses(pairs, free.view(np.int8) + certain.view(np.int8))


def _decided(params: QcvParams, requests: Iterable[tuple[ProfileState, int | None]]) -> Iterator[Statuses]:
    """``qcv``'s status on every target for each request, in order: the rule's ``statuses`` hook.

    No request is folded or scored. Consecutive requests on one space and
    electorate are decided together from the sets they reach
    (``_reached``). Alternative z is unanimously above y on every term when
    every set reached above y contains z, and x is free on some term when
    the empty set is reached above x, which the alternating sum of the row
    over ``parity`` counts. A voter request reads the sets of the other
    voters, and its row k casts basis ranking k for the voter: it keeps the
    reached sets that meet ranking k's set above x in nothing, which the
    same sum, taken over the subsets of ranking k's set, counts. A ``QscError`` (a
    delta too large for the space's m, as the kernel refuses it, a voter
    out of range, a profile that keeps nothing) is raised after every
    earlier request's result is yielded.
    """
    pending, failure = [], None
    try:
        for profile, voter in requests:
            params.check_alternatives(profile.space.alternatives.m)
            pending.append((profile, None if voter is None else profile.voter_position(voter)))
    except QscError as error:  # raised below, after the requests before it
        failure = error
    while pending:
        space, n = pending[0][0].space, pending[0][0].n_voters
        lattice = _lattice(space.alternatives)
        (d, m), sets = lattice.above.shape, len(lattice.zeta)
        size, cells = 0, 0  # up to _KERNEL_CELLS voter-set counts and vertex statuses a group
        for profile, pos in pending:
            cells += n * m * sets + (0 if pos is None else d * m * m)
            if size and (cells > _KERNEL_CELLS or not (profile.space is space or profile.space == space)
                         or profile.n_voters != n):
                break
            size += 1
        group, pending = pending[:size], pending[size:]
        reached, kept = _reached(params, lattice, group)
        if kept < len(group):  # raised below, after the requests before it, in place of any later failure
            group, pending, failure = group[:kept], [], InvalidArgument("profile has no diagonal support")
        reached = reached[:kept]
        # unanimous[x, y]: every set reached above y holds x; (x, x) never is, but with no voter left.
        unanimous = (reached[:, :, 1 << np.arange(m)] == reached[:, :, :1]).swapaxes(1, 2)
        certain = (unanimous | np.eye(m, dtype=bool)).all(axis=2)
        voters = [pos is not None for _, pos in group]
        rows = [iter(()), iter(())]  # the profile requests' statuses, then the voter requests'
        if not all(voters):
            profiles = np.logical_not(voters)
            free = reached[profiles] @ lattice.parity > 0.5
            rows[0] = zip(*_status_rows(unanimous[profiles], certain[profiles], free))
        if any(voters):
            # Row k: ranking k cut into each set reached above x, and x certain only where ranking k tops it.
            free = ((reached[voters] * lattice.parity).transpose(1, 0, 2) @ lattice.inside).transpose(1, 2, 0) > 0.5
            above = unanimous[voters, None] & basis_table(space.alternatives).above
            rows[1] = zip(*_status_rows(above, certain[voters, None] & (lattice.above == 0), free))
        for is_voter in voters:
            yield Statuses(*next(rows[is_voter]))
    if failure is not None:
        raise failure


def qcv_rule(params: QcvParams) -> WelfareRule:
    return WelfareRule(
        "qcv",
        lambda p: qcv(p, params),
        statuses=lambda requests, eps: _decided(params, requests),
    )


def dictator_rule(voter: int) -> WelfareRule:
    """Welfare rule that returns one voter's marginal ballot verbatim; the voter must be a positive integer.

    Its ``statuses`` hook reads the dictator's marginal against the check's
    eps. With the dictator's ballot replaced by basis ranking k, society is
    certain of what ranking k places above or tops and excluded from the
    rest; whatever basis ranking another voter casts, the marginal stays, so
    that voter's rows are the profile's statuses, broadcast. Consecutive
    requests on one profile share one read of its marginal.
    """
    voter = check_voter_index(voter)
    if voter < 1:
        raise InvalidArgument(f"voter index must be positive, got {voter}")

    def statuses(requests: Sequence[tuple[ProfileState, int | None]], eps: float) -> Iterator[Statuses]:
        last = found = None
        for profile, scanned in requests:
            alternatives, d = profile.space.alternatives, profile.space.dim
            if scanned is not None and profile.voter_position(scanned) == voter - 1:
                table, m = basis_table(alternatives), alternatives.m
                tops = np.repeat(np.eye(m, dtype=np.int8), d // m, axis=0)  # the Lehmer blocks
                yield Statuses(table.above * np.int8(CERTAIN), tops * np.int8(CERTAIN))
                continue
            if profile is not last:
                last, found = profile, _read_statuses(alternatives, profile.partial_ballot(voter).diagonal, eps)
            yield found if scanned is None else Statuses(*(np.broadcast_to(a, (d, *a.shape)) for a in found))

    return WelfareRule(f"dictator:{voter}", lambda p: p.partial_ballot(voter), statuses=statuses)


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
