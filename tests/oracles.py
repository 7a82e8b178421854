"""Independent straight-line oracles for the tests.

Everything in here recomputes expected values from first principles:
brute-force scans over label tuples and exact rational arithmetic. None
of it calls the package's own combinatorics or linear algebra, so a bug
in the implementation cannot hide in its oracle.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

LabelRanking = tuple[str, ...]


def ranks_above(ranking: LabelRanking, x: str, y: str) -> bool:
    return ranking.index(x) < ranking.index(y)


def lehmer_index(order: tuple[int, ...]) -> int:
    """Lehmer rank of a permutation of 0..m-1 among all m! orders; identity is 0."""
    m = len(order)
    rank = 0
    for pos, value in enumerate(order):
        smaller_after = sum(1 for later in order[pos + 1 :] if later < value)
        rank += smaller_after * factorial(m - 1 - pos)
    return rank


def lehmer_order(index: int, m: int) -> tuple[int, ...]:
    """Inverse of ``lehmer_index``."""
    remaining = list(range(m))
    order = []
    for pos in range(m):
        digit, index = divmod(index, factorial(m - 1 - pos))
        order.append(remaining.pop(digit))
    return tuple(order)


def oracle_condorcet_scores(labels: tuple[str, ...], rankings: list[LabelRanking]) -> dict[str, int]:
    scores = {x: 0 for x in labels}
    for x in labels:
        for y in labels:
            if x == y:
                continue
            wins = sum(1 for r in rankings if ranks_above(r, x, y))
            if wins >= len(rankings) - wins:
                scores[x] += 1
    return scores


def oracle_weak_order_extensions(
    labels: tuple[str, ...], scores: dict[str, int]
) -> list[LabelRanking]:
    """All label orders compatible with the strict part of the score order."""
    out = []
    for candidate in permutations(labels):
        ok = all(
            candidate.index(u) < candidate.index(v)
            for u in labels
            for v in labels
            if scores[u] > scores[v]
        )
        if ok:
            out.append(candidate)
    return out


def oracle_sigma3(
    labels: tuple[str, ...], rankings: list[LabelRanking], delta: Fraction
) -> dict[LabelRanking, Fraction]:
    """Exact-rational run of the six-step Condorcet rule on a basis profile."""
    scores = oracle_condorcet_scores(labels, rankings)
    extensions = oracle_weak_order_extensions(labels, scores)

    sigma: dict[LabelRanking, Fraction] = {p: Fraction(0) for p in permutations(labels)}
    for ext in extensions:
        sigma[ext] += Fraction(1, len(extensions))

    any_pairs = sorted(
        {
            (x, y)
            for r in rankings
            for x in labels
            for y in labels
            if x != y and ranks_above(r, x, y)
        }
    )
    sigma = {p: (1 - len(any_pairs) * delta) * w for p, w in sigma.items()}
    for x, y in any_pairs:
        members = [p for p in sigma if ranks_above(p, x, y)]
        for p in members:
            sigma[p] += delta * Fraction(1, len(members))

    all_pairs = sorted(
        {
            (x, y)
            for x in labels
            for y in labels
            if x != y and all(ranks_above(r, x, y) for r in rankings)
        }
    )
    keep = {p for p in sigma if all(ranks_above(p, x, y) for x, y in all_pairs)}
    mass = sum(w for p, w in sigma.items() if p in keep)
    assert mass > 0
    return {p: (w / mass if p in keep else Fraction(0)) for p, w in sigma.items()}


def oracle_support(
    weights: dict[LabelRanking, Fraction], predicate
) -> Fraction:
    """Total weight of the rankings satisfying the predicate."""
    return sum((w for p, w in weights.items() if predicate(p)), Fraction(0))


def oracle_top_distribution(weights: dict[LabelRanking, Fraction]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for p, w in weights.items():
        out[p[0]] = out.get(p[0], Fraction(0)) + w
    return out
