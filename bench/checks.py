"""Checks on the program's outputs, run outside the timed section.

Each check returns a list of problems; an empty list means the output passed.
Rule outputs are compared with ``reference`` (computed apart from the
program) and must have the properties every output of the rule has. Reports
must carry the verdicts the paper predicts, over the whole requested sample.
"""

from __future__ import annotations

import reference

TOL = 1e-8  # reports print 12 significant digits; the rule is exact up to float mixing
EPS = 1e-9

HOLDS = "holds-on-sample"
BYPASS = "bypass-demonstrated"
NO_DICTATOR = "falsified-dictatorship"


def _society_properties(document: dict, society: dict[str, float]) -> list[str]:
    problems = []
    total = sum(society.values())
    if abs(total - 1.0) > TOL:
        problems.append(f"society trace {total!r} is not 1")
    negative = [r for r, w in society.items() if w < 0.0]
    if negative:
        problems.append(f"negative weight on {negative[:3]}")
    for x, y in reference.unanimous_pairs(document):
        mass = sum(
            w for r, w in society.items() if reference.above(reference.parse_ranking(r), x, y)
        )
        if mass < 1.0 - TOL:
            problems.append(f"unanimously certain pair {x}>{y} has society probability {mass!r}")
    return problems


def _distribution_properties(document: dict, distribution: dict[str, float]) -> list[str]:
    problems = []
    total = sum(distribution.values())
    if abs(total - 1.0) > TOL:
        problems.append(f"distribution sums to {total!r}")
    negative = [a for a, p in distribution.items() if p < 0.0]
    if negative:
        problems.append(f"negative probability for {negative}")
    for x, y in reference.unanimous_pairs(document):
        # x is above y in every ranking society keeps, so y can never top it.
        if distribution.get(y, 0.0) > TOL:
            problems.append(f"{y} wins with probability {distribution[y]!r} below unanimous {x}")
    return problems


def _compare(got: dict, want: dict, what: str) -> list[str]:
    keys = set(got) | set(want)
    worst = max(keys, key=lambda k: abs(got.get(k, 0.0) - want.get(k, 0.0)))
    error = abs(got.get(worst, 0.0) - want.get(worst, 0.0))
    if error > TOL:
        return [f"{what} differs from the reference by {error:.3e} at {worst}"]
    return []


def check_society(document: dict, society: dict[str, float]) -> list[str]:
    """A qcv output (ranking text -> weight) against the reference and the rule's properties."""
    want = {reference.ranking_text(r): w for r, w in reference.qcv(document).items()}
    return _compare(society, want, "qcv") + _society_properties(document, society)


def check_distribution(document: dict, distribution: dict[str, float]) -> list[str]:
    """A qcvne output (alternative -> probability) against the reference and properties."""
    want = reference.qcvne(document)
    return _compare(distribution, want, "qcvne") + _distribution_properties(document, distribution)


def check_evaluate_report(document: dict, rule: str, report: dict) -> list[str]:
    """One ``qsc evaluate`` report for the given profile document."""
    if report.get("rule") != rule:
        return [f"report names rule {report.get('rule')!r}, expected {rule!r}"]
    if rule == "qcv":
        society = report.get("society", {})
        if set(society) != {"mixed"}:
            return [f"qcv society is not a diagonal term list: {sorted(society)}"]
        return check_society(document, {r: w for w, r in society["mixed"]})
    return check_distribution(document, report.get("distribution", {}))


def check_qic_report(report: dict, rule: str, trials: int, seed: int) -> list[str]:
    """A clean rule's manipulation hunt: every trial run, no witness."""
    problems = []
    expected = {"axiom": "qic", "rule": rule, "verdict": HOLDS, "trials": trials, "seed": seed}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"qic {key} is {report.get(key)!r}, expected {value!r}")
    if report.get("details", {}).get("trials_run") != trials:
        problems.append(f"qic ran {report.get('details', {}).get('trials_run')!r} of {trials} trials")
    if report.get("witnesses"):
        problems.append(f"qic reports {len(report['witnesses'])} manipulation witnesses")
    return problems


def _check_dictatorship(report: dict, trials: int) -> list[str]:
    problems = []
    if report.get("verdict") != NO_DICTATOR:
        problems.append(f"dictatorship verdict {report.get('verdict')!r}")
    details = report.get("details", {})
    if details.get("survivors") != []:
        problems.append(f"dictator candidates survive: {details.get('survivors')!r}")
    if report.get("trials") != trials or not 1 <= details.get("trials_run", 0) <= trials:
        problems.append(f"dictatorship ran {details.get('trials_run')!r} of {trials} trials")
    return problems


def _check_suite_head(report: dict, suite: str, rule: str, trials: int, seed: int,
                      components: list[str]) -> list[str]:
    problems = []
    expected = {"suite": suite, "rule": rule, "verdict": BYPASS, "trials": trials, "seed": seed}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{suite} {key} is {report.get(key)!r}, expected {value!r}")
    names = [c.get("name") for c in report.get("components", [])]
    if names != components:
        problems.append(f"{suite} components {names}, expected {components}")
    for c in report.get("components", []):
        if c.get("ok") is not True:
            problems.append(f"{suite} component {c.get('name')} failed: {c.get('verdict')!r}")
    return problems


def check_gs_report(report: dict, rule: str, trials: int, seed: int, m: int) -> list[str]:
    """Gibbard-Satterthwaite bypass: QIC holds, onto holds, no dictator."""
    problems = _check_suite_head(report, "gs-suite", rule, trials, seed,
                                 ["qic", "onto", "non-dictatorship"])
    parts = report.get("reports", [])
    if len(parts) != 3:
        return problems + [f"gs-suite has {len(parts)} component reports"]
    qic, onto, dictatorship = parts
    problems += check_qic_report(qic, rule, trials, seed)
    if onto.get("verdict") != HOLDS or onto.get("details", {}).get("reached") != m:
        problems.append(f"onto reached {onto.get('details', {}).get('reached')!r} of {m}")
    problems += _check_dictatorship(dictatorship, trials)
    return problems


def check_arrow_report(report: dict, rule: str, trials: int, seed: int) -> list[str]:
    """Arrow bypass, with unanimity and IIA hypotheses that actually fired."""
    problems = _check_suite_head(
        report, "arrow-suite", rule, trials, seed,
        ["unanimity-sharp", "unanimity-unsharp", "iia-sharp", "iia-unsharp", "non-dictatorship"],
    )
    parts = report.get("reports", [])
    if len(parts) != 3:
        return problems + [f"arrow-suite has {len(parts)} component reports"]
    unanimity, iia, dictatorship = parts
    for part in (unanimity, iia):
        name = part.get("axiom")
        if part.get("verdict") != HOLDS or part.get("witnesses"):
            problems.append(f"{name} verdict {part.get('verdict')!r}")
        if part.get("trials") != trials:
            problems.append(f"{name} ran {part.get('trials')!r} of {trials} trials")
        for variant in ("sharp", "unsharp"):
            if part.get("details", {}).get(variant, {}).get("instances", 0) < 1:
                problems.append(f"{name} {variant} never applied: the check is vacuous")
    for variant in ("sharp", "unsharp"):
        if unanimity.get("details", {}).get(variant, {}).get("violations") != 0:
            problems.append(f"unanimity {variant} violations")
    if iia.get("details", {}).get("violations") != 0:
        problems.append("iia violations")
    problems += _check_dictatorship(dictatorship, trials)
    return problems


def check_identical(texts: list[str]) -> list[str]:
    """Every round's report bytes must match the first round's."""
    differing = [i for i, text in enumerate(texts) if text != texts[0]]
    return [f"rounds {differing} wrote different report bytes"] if differing else []
