"""The benchmark's workloads: their inputs, made from the seed, and their checks.

Every input comes from ``--seed`` alone. Check workloads pass a seed-derived
``--seed`` to the CLI, which draws its own profiles; the benchmark replays
those draws through ``qsc``'s public sampler to check the rule on a seeded
sample of them. ``evaluate-m56`` writes generated profile documents.
"""

from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass, field

import checks
import reference

EPS = 1e-9
FAMILY = "basis,sup2,sup3,grid"  # the CLI's default dishonest-ballot family
VOTERS = 3


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[tuple[str, list[str]]]  # (report name, argv) in job order
    setup: dict  # what the worker sets up before the job
    inputs: dict = field(default_factory=dict)  # generated documents by name
    cli_seed: int | None = None

    def check(self, reports: dict[str, str]) -> list[tuple[str, list[str]]]:
        """(check name, problems) for the reports of one round."""
        return CHECKS[self.name](self, reports)


def labels(m: int) -> list[str]:
    return list(string.ascii_lowercase[:m])


def _rng(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{purpose}")


def _check_argv(command: list[str], m: int, trials: int, cli_seed: int, report: str) -> list[str]:
    return [*command, "--alternatives", str(m), "--voters", str(VOTERS), "--trials", str(trials),
            "--seed", str(cli_seed), "--family", FAMILY, "--out", report]


# ---------------------------------------------------------------- profile draws

def drawn_profiles(m: int, cli_seed: int, count: int, paired: bool = False) -> list:
    """The first ``count`` profiles the CLI's sampler draws for ``--seed cli_seed``.

    With ``paired`` the draws are the IIA sampler's (profile, twin, pair) triples.
    """
    from qsc import AlternativeSet, RankingSpace, default_paired_sampler, default_profile_sampler

    space = RankingSpace(AlternativeSet(tuple(labels(m))))
    make = default_paired_sampler if paired else default_profile_sampler
    sampler = make(space, VOTERS)
    rng = random.Random(cli_seed)
    return [sampler(rng) for _ in range(count)]


def _program_outputs(profile) -> tuple[dict[str, float], dict[str, float]]:
    from qsc import QcvParams, qcv, qcvne

    params = QcvParams.for_alternatives(profile.space.alternatives.m)
    names = [r.to_string() for r in profile.space.rankings()]
    society = dict(zip(names, (float(w) for w in qcv(profile, params).diagonal)))
    return society, dict(qcvne(profile, params).as_dict())


def check_sampled_profiles(profiles: list) -> list[tuple[str, list[str]]]:
    """Program qcv and qcvne against the reference on each profile."""
    from qsc import serialize_profile

    results = []
    for i, profile in enumerate(profiles):
        document = serialize_profile(profile)
        society, distribution = _program_outputs(profile)
        results.append((f"sample[{i}].qcv", checks.check_society(document, society)))
        results.append((f"sample[{i}].qcvne", checks.check_distribution(document, distribution)))
    return results


def _sample(items: list, k: int, rng: random.Random) -> list:
    return [items[i] for i in sorted(rng.sample(range(len(items)), k))]


# ---------------------------------------------------------------- qic-m3

QIC_TRIALS = 200
QIC_SAMPLE = 25


def build_qic_m3(seed: int, out: str) -> Workload:
    cli_seed = _rng("qic-m3", seed, "cli").randrange(1, 2**31)
    argv = _check_argv(["check", "--axiom", "qic", "--rule", "qcv"], 3, QIC_TRIALS, cli_seed,
                       "qic.json")
    return Workload("qic-m3", seed, [("qic", argv)],
                    {"alternatives": [3], "family": FAMILY, "eps": EPS}, cli_seed=cli_seed)


def check_qic_m3(w: Workload, reports: dict[str, str]) -> list[tuple[str, list[str]]]:
    report = json.loads(reports["qic"])
    results = [("qic.report", checks.check_qic_report(report, "qcv", QIC_TRIALS, w.cli_seed))]
    profiles = drawn_profiles(3, w.cli_seed, QIC_TRIALS)
    sample = _sample(profiles, QIC_SAMPLE, _rng(w.name, w.seed, "sample"))
    return results + check_sampled_profiles(sample)


# ---------------------------------------------------------------- gs-m4

GS_TRIALS = 10
# Each voter whose clauses fire is scanned over the whole 3,152-ballot family,
# so the job's length follows the number of scanned voters in the draw (0 to 3
# per trial, 1.9 on average). Keeping CLI seeds whose 10 trials scan exactly 19
# voters makes every seed do the same search work.
GS_SCANNED_VOTERS = 19


def scanned_voters(document: dict, eps: float = EPS) -> int:
    """Voters whose QIC clauses fire on a choice rule, from the reference rule.

    A voter certain that a wins fires when society is not certain of a, or
    gives a nothing; a voter giving a partial support fires when society gives
    a nothing. (For choice rules a voter giving a nothing has no clause.)
    """
    society = reference.qcvne(document)
    count = 0
    for ballot in reference.voter_marginals(document):
        fires = False
        for a, s in society.items():
            b = sum(w for r, w in ballot.items() if r[0] == a)
            if b >= 1.0 - eps:
                fires |= s < 1.0 - eps or s <= eps
            elif b > eps:
                fires |= s <= eps
        count += fires
    return count


def dictators_eliminated(documents: list[dict], eps: float = EPS) -> bool:
    """Whether the draws break, for every voter, both dictatorship variants on a choice rule.

    Sharp: voter certain of a winner exactly when society is; unsharp: voter
    supporting it exactly when society does. One counterexample per voter and
    variant eliminates that candidate.
    """
    found = set()
    for document in documents:
        society = reference.qcvne(document)
        for v, ballot in enumerate(reference.voter_marginals(document)):
            for a, s in society.items():
                b = sum(w for r, w in ballot.items() if r[0] == a)
                if (b >= 1.0 - eps) != (s >= 1.0 - eps):
                    found.add((v, "sharp"))
                if (b > eps) != (s > eps):
                    found.add((v, "unsharp"))
    return len(found) == 2 * VOTERS


def build_gs_m4(seed: int, out: str) -> Workload:
    from qsc import serialize_profile

    rng = _rng("gs-m4", seed, "cli")
    while True:
        cli_seed = rng.randrange(1, 2**31)
        hunt = [serialize_profile(p) for p in drawn_profiles(4, cli_seed, GS_TRIALS)]
        if sum(map(scanned_voters, hunt)) != GS_SCANNED_VOTERS:
            continue
        # The suite's dictatorship scan draws from --seed + 1. About one draw in
        # 3,000 leaves a candidate standing after 10 trials: an honest verdict
        # of a small sample, but it would fail the run, so such seeds are skipped.
        scan = [serialize_profile(p) for p in drawn_profiles(4, cli_seed + 1, GS_TRIALS)]
        if dictators_eliminated(scan):
            break
    argv = _check_argv(["check", "--axiom", "gs-suite", "--rule", "qcvne"], 4, GS_TRIALS,
                       cli_seed, "gs.json")
    return Workload("gs-m4", seed, [("gs", argv)],
                    {"alternatives": [4], "family": FAMILY, "eps": EPS}, cli_seed=cli_seed)


def check_gs_m4(w: Workload, reports: dict[str, str]) -> list[tuple[str, list[str]]]:
    report = json.loads(reports["gs"])
    results = [("gs.report", checks.check_gs_report(report, "qcvne", GS_TRIALS, w.cli_seed, 4))]
    return results + check_sampled_profiles(drawn_profiles(4, w.cli_seed, GS_TRIALS))


# ---------------------------------------------------------------- arrow-m4

ARROW_TRIALS = 1000
ARROW_SAMPLE = 20
ARROW_TWINS = 5


def build_arrow_m4(seed: int, out: str) -> Workload:
    cli_seed = _rng("arrow-m4", seed, "cli").randrange(1, 2**31)
    argv = _check_argv(["suite", "arrow", "--rule", "qcv"], 4, ARROW_TRIALS, cli_seed,
                       "arrow.json")
    return Workload("arrow-m4", seed, [("arrow", argv)],
                    {"alternatives": [4], "family": None, "eps": EPS}, cli_seed=cli_seed)


def check_arrow_m4(w: Workload, reports: dict[str, str]) -> list[tuple[str, list[str]]]:
    report = json.loads(reports["arrow"])
    results = [("arrow.report", checks.check_arrow_report(report, "qcv", ARROW_TRIALS, w.cli_seed))]
    rng = _rng(w.name, w.seed, "sample")
    # The suite draws unanimity profiles from --seed and IIA pairs from --seed + 1.
    profiles = _sample(drawn_profiles(4, w.cli_seed, ARROW_TRIALS), ARROW_SAMPLE, rng)
    pairs = _sample(drawn_profiles(4, w.cli_seed + 1, ARROW_TRIALS, paired=True), ARROW_TWINS, rng)
    for profile, twin, _ in pairs:
        profiles += [profile, twin]
    return results + check_sampled_profiles(profiles)


# ---------------------------------------------------------------- evaluate-m56

# (style, support size) per voter. m=5: 3^5 = 243 support tuples; m=6: 2*2*1 = 4.
M5_BALLOTS = [("pure", 3), ("mixed", 3), ("pure", 3), ("mixed", 3), ("pure", 3)]
M6_BALLOTS = [("pure", 2), ("mixed", 2), ("pure", 1)]
# At m=6 each support tuple costs one dense projection per unanimous pair, so
# every m=6 tuple is drawn with exactly this many unanimously ordered pairs.
M6_UNANIMOUS_PAIRS = 2


def _ballot(rng: random.Random, style: str, rankings: list[tuple[str, ...]]) -> dict:
    if style == "pure":
        terms = []
        for r in rankings:
            re = round(rng.uniform(0.3, 1.0) * rng.choice((-1, 1)), 6)
            im = round(rng.uniform(0.3, 1.0) * rng.choice((-1, 1)), 6)
            terms.append([re, im, reference.ranking_text(r)])
        return {"pure": terms}
    return {"mixed": [[round(rng.uniform(0.5, 2.0), 6), reference.ranking_text(r)]
                      for r in rankings]}


def make_document(rng: random.Random, m: int, ballots: list[tuple[str, int]],
                  unanimous_pairs: int | None = None) -> dict:
    """A product profile document with the given ballot styles and support sizes.

    With ``unanimous_pairs`` set, the support rankings are redrawn until every
    support tuple orders exactly that many pairs unanimously.
    """
    names = labels(m)
    while True:
        supports = [[tuple(rng.sample(names, m)) for _ in range(size)] for _, size in ballots]
        if any(len(set(s)) != len(s) for s in supports):
            continue
        if unanimous_pairs is None:
            break
        tuples = reference.support_terms(
            {"voters": [{"mixed": [[1, reference.ranking_text(r)] for r in s]} for s in supports]}
        )
        if all(len(frozenset.intersection(*map(reference.oriented_pairs, t))) == unanimous_pairs
               for _, t in tuples):
            break
    return {"alternatives": names,
            "voters": [_ballot(rng, style, s) for (style, _), s in zip(ballots, supports)]}


def build_evaluate_m56(seed: int, out: str) -> Workload:
    rng = _rng("evaluate-m56", seed, "documents")
    inputs = {"m5": make_document(rng, 5, M5_BALLOTS),
              "m6": make_document(rng, 6, M6_BALLOTS, M6_UNANIMOUS_PAIRS)}
    invocations = []
    for name, document in inputs.items():
        path = os.path.join(out, f"profile-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        for rule in ("qcv", "qcvne"):
            invocations.append((f"{name}.{rule}", ["evaluate", "--rule", rule, "--profile", path,
                                                   "--out", f"{name}.{rule}.json"]))
    return Workload("evaluate-m56", seed, invocations,
                    {"alternatives": [5, 6], "family": None, "eps": EPS}, inputs=inputs)


def check_evaluate_m56(w: Workload, reports: dict[str, str]) -> list[tuple[str, list[str]]]:
    results = []
    for name, _ in w.invocations:
        document = w.inputs[name.split(".")[0]]
        rule = name.split(".")[1]
        results.append((name, checks.check_evaluate_report(document, rule, json.loads(reports[name]))))
    return results


BUILDERS = {
    "qic-m3": build_qic_m3,
    "gs-m4": build_gs_m4,
    "evaluate-m56": build_evaluate_m56,
    "arrow-m4": build_arrow_m4,
}
CHECKS = {
    "qic-m3": check_qic_m3,
    "gs-m4": check_gs_m4,
    "evaluate-m56": check_evaluate_m56,
    "arrow-m4": check_arrow_m4,
}


def build(name: str, seed: int, out: str) -> Workload:
    """The named workload's inputs for ``seed``; documents are written under ``out``."""
    return BUILDERS[name](seed, out)
