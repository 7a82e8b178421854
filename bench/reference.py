"""Reference quantum Condorcet rule, written from the paper's definition.

It shares no code with ``qsc``: profiles arrive as parsed profile documents
and the rule is computed on basis weights alone.

For one basis profile (a tuple of strict rankings) the six steps are:

1. Condorcet scores: x gains a point against y when at least as many voters
   rank x above y as the reverse (a tie credits both).
2. The weak order of equal-score tiers, best first.
3. sigma1, the uniform mixture of the weak order's linear extensions.
4. sigma2 = (1 - k delta) sigma1 + delta * (sum over the k pairs in
   ``pairs_any`` of the uniform state on the rankings placing x above y).
5. ``pairs_all``: the pairs every voter orients the same way.
6. sigma3: sigma2 with every ranking that breaks a ``pairs_all`` pair set to
   zero, renormalized.

Steps 1-6 run on exact rationals. A general profile mixes the basis outputs
over its support tuples, weighted by the product (or the correlated weight)
of the ballots' diagonals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

Ranking = tuple[str, ...]


def parse_ranking(text: str) -> Ranking:
    return tuple(part.strip() for part in text.split(">"))


def ranking_text(ranking: Ranking) -> str:
    return ">".join(ranking)


def default_delta(m: int) -> Fraction:
    """The rule's default spread weight: 1/20 for three alternatives, else 1/(2 m^2)."""
    return Fraction(1, 20) if m == 3 else Fraction(1, 2 * m * m)


@lru_cache(maxsize=8)
def all_rankings(labels: tuple[str, ...]) -> tuple[Ranking, ...]:
    return tuple(permutations(labels))


def above(ranking: Ranking, x: str, y: str) -> bool:
    return ranking.index(x) < ranking.index(y)


def oriented_pairs(ranking: Ranking) -> frozenset[tuple[str, str]]:
    return frozenset(
        (ranking[i], ranking[j]) for i in range(len(ranking)) for j in range(i + 1, len(ranking))
    )


@lru_cache(maxsize=None)
def _six_steps_sorted(voters: tuple[Ranking, ...], delta: Fraction) -> dict[Ranking, Fraction]:
    labels = tuple(sorted(voters[0]))
    n = len(voters)
    scores = {x: 0 for x in labels}
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            for_x = sum(1 for r in voters if above(r, x, y))
            for_y = n - for_x
            if for_x >= for_y:
                scores[x] += 1
            if for_y >= for_x:
                scores[y] += 1
    rankings = all_rankings(labels)
    extensions = [
        r for r in rankings
        if all(scores[r[i]] >= scores[r[j]] for i in range(len(r)) for j in range(i + 1, len(r)))
    ]
    pair_sets = [oriented_pairs(r) for r in voters]
    pairs_any = frozenset.union(*pair_sets)
    pairs_all = frozenset.intersection(*pair_sets)

    half = Fraction(2, len(rankings))  # each pair subspace holds m!/2 rankings
    k = len(pairs_any)
    sigma = {r: Fraction(0) for r in rankings}
    for r in extensions:
        sigma[r] += (1 - k * delta) / len(extensions)
    for x, y in pairs_any:
        for r in rankings:
            if above(r, x, y):
                sigma[r] += delta * half
    for r in rankings:
        if any(not above(r, x, y) for x, y in pairs_all):
            sigma[r] = Fraction(0)
    total = sum(sigma.values())
    return {r: w / total for r, w in sigma.items() if w}


def six_steps(voters: tuple[Ranking, ...], delta: Fraction) -> dict[Ranking, Fraction]:
    """Society's exact basis weights for one basis profile."""
    # Every step depends on the multiset of rankings only, so sort for the cache.
    return _six_steps_sorted(tuple(sorted(voters)), delta)


def ballot_weights(spec: dict) -> dict[Ranking, float]:
    """Diagonal of one serialized ballot: |amplitude|^2 for pure terms, weights for mixed."""
    weights: dict[Ranking, float] = {}
    if "pure" in spec:
        amplitudes: dict[Ranking, complex] = {}
        for re, im, text in spec["pure"]:
            r = parse_ranking(text)
            amplitudes[r] = amplitudes.get(r, 0j) + complex(re, im)
        for r, a in amplitudes.items():
            weights[r] = abs(a) ** 2
    else:
        for w, text in spec["mixed"]:
            r = parse_ranking(text)
            weights[r] = weights.get(r, 0.0) + float(w)
    total = sum(weights.values())
    return {r: w / total for r, w in weights.items() if w > 0.0}


def support_terms(document: dict) -> list[tuple[float, tuple[Ranking, ...]]]:
    """(weight, ranking tuple) terms of a profile document's diagonal."""
    if "voters" in document:
        ballots = [ballot_weights(spec) for spec in document["voters"]]
        terms = []
        for combo in product(*(sorted(b.items()) for b in ballots)):
            weight = 1.0
            for _, w in combo:
                weight *= w
            terms.append((weight, tuple(r for r, _ in combo)))
        return terms
    total = sum(float(w) for w, _ in document["correlated"])
    return [
        (float(w) / total, tuple(parse_ranking(t) for t in texts))
        for w, texts in document["correlated"]
    ]


def voter_marginals(document: dict) -> list[dict[Ranking, float]]:
    """Each voter's diagonal ballot weights."""
    if "voters" in document:
        return [ballot_weights(spec) for spec in document["voters"]]
    n = len(document["correlated"][0][1])
    marginals: list[dict[Ranking, float]] = [{} for _ in range(n)]
    for weight, rankings in support_terms(document):
        for v, r in enumerate(rankings):
            marginals[v][r] = marginals[v].get(r, 0.0) + weight
    return marginals


def qcv(document: dict, delta: Fraction | None = None) -> dict[Ranking, float]:
    """Society's basis weights under the quantum Condorcet rule."""
    labels = tuple(document["alternatives"])
    if delta is None:
        delta = default_delta(len(labels))
    society = {r: 0.0 for r in all_rankings(labels)}
    for weight, voters in support_terms(document):
        for r, w in six_steps(voters, delta).items():
            society[r] += weight * float(w)
    return society


def natural_extension(society: dict[Ranking, float]) -> dict[str, float]:
    """Each ranking's weight credited to its top alternative."""
    labels = sorted(next(iter(society)))
    out = {a: 0.0 for a in labels}
    for r, w in society.items():
        out[r[0]] += w
    return out


def qcvne(document: dict, delta: Fraction | None = None) -> dict[str, float]:
    return natural_extension(qcv(document, delta))


def unanimous_pairs(document: dict, eps: float = 1e-9) -> list[tuple[str, str]]:
    """Ordered pairs (x, y) that every voter's ballot puts x above y with certainty."""
    labels = document["alternatives"]
    marginals = voter_marginals(document)
    return [
        (x, y)
        for x in labels for y in labels if x != y
        if all(sum(w for r, w in b.items() if above(r, x, y)) >= 1.0 - eps for b in marginals)
    ]
