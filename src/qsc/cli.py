"""Command-line front end.

Three commands: ``evaluate`` runs a rule on a profile document, ``check``
runs one axiom check or a bundled suite, and ``suite`` is shorthand for
the two bundles. Reports are canonical JSON: same seed and flags give
byte-identical bytes (wall-clock timing is opt-in via --timing).

Exit codes: 0 for expected verdicts, 1 when a rule with a known expected
verdict produced a different one, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from dataclasses import replace
from typing import Any

from . import serde
from .axioms import (
    CandidateBallotFamily,
    SuiteConfig,
    check_dictatorship_choice,
    check_dictatorship_welfare,
    check_iia,
    check_onto,
    check_qic,
    check_unanimity,
    default_paired_sampler,
    default_profile_sampler,
    run_arrow_suite,
    run_gs_suite,
    VERDICT_BYPASS,
    VERDICT_DICTATOR_CANDIDATE,
    VERDICT_FALSIFIED,
    VERDICT_HOLDS,
    VERDICT_NO_DICTATOR,
    VERDICT_NOT_BYPASSED,
)
from .choice import ChoiceRule, NATURAL_EXTENSION, compose, qcvne_rule
from .errors import InvalidArgument, ParseError, QscError
from .hilbert import ProfileState, RankingSpace
from .rankings import AlternativeSet, ClassicalProfile, Ranking
from .welfare import QcvParams, WelfareRule, default_delta, dictator_rule, qcv_basis, qcv_rule, veto_rule

CHECK_AXIOMS = ("qic", "dictatorship", "onto", "unanimity", "iia", "arrow-suite", "gs-suite")
WELFARE_ONLY_AXIOMS = {"unanimity", "iia", "arrow-suite"}
CHOICE_AXIOMS = {"onto", "gs-suite"}

# Expected verdict per (rule family, axiom); a mismatch exits 1 so CI runs
# catch both regressions of known-good rules and a search engine too weak
# to flag the manipulable control.
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


def _emit_error(exc: Exception) -> None:
    record: dict[str, Any] = {
        "error": getattr(exc, "kind", "error"),
        "message": str(exc),
    }
    locus = getattr(exc, "locus", None)
    if locus:
        record["locus"] = locus
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _default_labels(m: int) -> AlternativeSet:
    if m > len(string.ascii_lowercase):
        raise InvalidArgument(f"at most {len(string.ascii_lowercase)} generated labels supported")
    return AlternativeSet(tuple(string.ascii_lowercase[:m]))


def parse_family(spec: str) -> CandidateBallotFamily:
    """Parse a --family spec like ``basis,sup2,sup3,grid:0.25,random:16``."""
    family = CandidateBallotFamily(
        basis=False, pair_superpositions=False, triple_superpositions=False, mixture_grid_step=0.0
    )
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        name, _, arg = token.partition(":")
        try:
            if name == "basis":
                family = replace(family, basis=True)
            elif name == "sup2":
                family = replace(family, pair_superpositions=True)
            elif name == "sup3":
                family = replace(family, triple_superpositions=True)
            elif name == "grid":
                family = replace(family, mixture_grid_step=float(arg) if arg else 0.25)
            elif name == "random":
                family = replace(family, random_pure=int(arg) if arg else 16)
            elif name == "seed":
                family = replace(family, random_seed=int(arg))
            else:
                raise ParseError(f"unknown family token {token!r}", "family")
        except ValueError as exc:
            raise ParseError(f"bad family token {token!r}: {exc}", "family") from None
    return family


def resolve_rule(
    name: str, alternatives: AlternativeSet, params: QcvParams
) -> WelfareRule | ChoiceRule:
    if name == "qcv":
        return qcv_rule(params)
    if name == "qcvne":
        return qcvne_rule(params)
    base, _, arg = name.partition(":")
    if base == "dictator":
        try:
            voter = int(arg)
        except ValueError:
            raise ParseError(f"dictator rule needs a voter index, got {name!r}", "rule") from None
        return dictator_rule(voter)
    if base == "veto":
        try:
            ranking = Ranking.from_string(alternatives, arg)
        except InvalidArgument as exc:
            raise ParseError(str(exc), "rule") from None
        return veto_rule(ranking)
    raise ParseError(f"unknown rule {name!r}", "rule")


def _rule_family(name: str) -> str:
    return name.partition(":")[0]


def _write_report(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _as_text(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload: dict) -> str:
    lines = []
    if "distribution" in payload:
        lines.append(f"rule: {payload['rule']}")
        for name, p in payload["distribution"].items():
            lines.append(f"  {name}: {p}")
    elif "society" in payload:
        lines.append(f"rule: {payload['rule']}")
        terms = payload["society"].get("mixed") or payload["society"].get("pure")
        kind = "mixed" if "mixed" in payload["society"] else "pure"
        lines.append(f"  society ({kind}):")
        for term in terms:
            lines.append(f"    {term}")
    elif "suite" in payload:
        lines.append(f"suite: {payload['suite']} rule: {payload['rule']} verdict: {payload['verdict']}")
        for component in payload["components"]:
            lines.append(f"  {component['name']}: {component['verdict']}")
    else:
        lines.append(
            f"axiom: {payload['axiom']} rule: {payload['rule']} verdict: {payload['verdict']} "
            f"trials: {payload['trials']} witnesses: {len(payload['witnesses'])}"
        )
    if "stages" in payload:
        lines.append(f"  stages: {json.dumps(payload['stages'], sort_keys=True)}")
    return "\n".join(lines)


def _stages_payload(profile: ProfileState, params: QcvParams) -> dict:
    tuples = profile.support_tuples(params.eps, params.support_cap)
    if len(tuples) != 1:
        raise InvalidArgument(
            "--stages needs a profile supported on a single ranking tuple; "
            f"this one mixes {len(tuples)}"
        )
    rankings = profile.space.rankings()
    classical = ClassicalProfile(tuple(rankings[k] for k in tuples[0][1]))
    stages = qcv_basis(classical, params)
    return {
        "scores": stages.scores,
        "weak_order": stages.weak_order.tier_labels(),
        "extensions": [r.to_string() for r in stages.extensions],
        "pairs_any": [list(p) for p in stages.pairs_any],
        "pairs_all": [list(p) for p in stages.pairs_all],
        "sigma1": serde.serialize_density(stages.sigma1, params.eps),
        "sigma2": serde.serialize_density(stages.sigma2, params.eps),
        "sigma3": serde.serialize_density(stages.sigma3, params.eps),
    }


def cmd_evaluate(args) -> int:
    if args.profile == "-":
        text = sys.stdin.read()
    else:
        with open(args.profile, "r", encoding="utf-8") as handle:
            text = handle.read()
    profile = serde.parse_profile(text, args.eps)
    alternatives = profile.space.alternatives
    delta = args.delta if args.delta is not None else default_delta(alternatives.m)
    params = QcvParams(delta=delta, eps=args.eps)
    params.check_alternatives(alternatives.m)
    rule = resolve_rule(args.rule, alternatives, params)
    if isinstance(rule, ChoiceRule):
        payload: dict[str, Any] = {
            "rule": rule.name,
            "distribution": serde.serialize_alternative_state(rule.evaluate(profile)),
        }
    else:
        payload = {
            "rule": rule.name,
            "society": serde.serialize_density(rule.evaluate(profile), args.eps),
        }
    if args.stages:
        if _rule_family(args.rule) not in ("qcv", "qcvne"):
            raise ParseError(f"--stages only applies to Condorcet rules, not {args.rule!r}", "rule")
        payload["stages"] = _stages_payload(profile, params)
    _write_report(payload, args)
    return 0


def _run_check(args, axiom: str) -> int:
    alternatives = _default_labels(args.alternatives)
    space = RankingSpace(alternatives)
    delta = args.delta if args.delta is not None else default_delta(alternatives.m)
    params = QcvParams(delta=delta, eps=args.eps)
    params.check_alternatives(alternatives.m)
    rule = resolve_rule(args.rule, alternatives, params)
    family = parse_family(args.family)

    if axiom in CHOICE_AXIOMS and isinstance(rule, WelfareRule):
        rule = compose(NATURAL_EXTENSION, rule)
    if axiom in WELFARE_ONLY_AXIOMS and isinstance(rule, ChoiceRule):
        raise ParseError(f"axiom {axiom!r} applies to welfare rules, not {args.rule!r}", "axiom")

    sampler = default_profile_sampler(space, args.voters)
    if axiom == "qic":
        report = check_qic(rule, sampler, family, args.trials, args.seed, args.eps)
    elif axiom == "dictatorship":
        if isinstance(rule, ChoiceRule):
            report = check_dictatorship_choice(rule, space, sampler, args.trials, args.seed, args.eps)
        else:
            report = check_dictatorship_welfare(rule, space, sampler, args.trials, args.seed, args.eps)
    elif axiom == "onto":
        report = check_onto(rule, alternatives, args.voters, args.eps)
    elif axiom == "unanimity":
        report = check_unanimity(rule, space, sampler, args.trials, args.seed, args.eps)
    elif axiom == "iia":
        paired = default_paired_sampler(space, args.voters)
        report = check_iia(rule, space, paired, args.trials, args.seed, args.eps)
    elif axiom in ("arrow-suite", "gs-suite"):
        config = SuiteConfig(
            alternatives=alternatives,
            n_voters=args.voters,
            trials=args.trials,
            seed=args.seed,
            eps=args.eps,
            family=family,
        )
        if axiom == "arrow-suite":
            report = run_arrow_suite(rule, config)
        else:
            report = run_gs_suite(rule, config)
    else:
        raise ParseError(f"unknown axiom {axiom!r}", "axiom")

    _write_report(report.to_jsonable(include_elapsed=args.timing), args)
    expected = EXPECTED_VERDICTS.get((_rule_family(args.rule), axiom))
    if expected is not None and report.verdict != expected:
        return 1
    return 0


def cmd_check(args) -> int:
    return _run_check(args, args.axiom)


def cmd_suite(args) -> int:
    return _run_check(args, f"{args.suite}-suite")


def _add_common_check_flags(sub) -> None:
    sub.add_argument("--rule", default="qcv", help="qcv | qcvne | dictator:N | veto:a>b>c")
    sub.add_argument("--alternatives", type=int, default=3, metavar="M")
    sub.add_argument("--voters", type=int, default=3, metavar="N")
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--delta", type=float, default=None, help="spread weight; default depends on M")
    sub.add_argument("--eps", type=float, default=1e-9)
    sub.add_argument("--family", default="basis,sup2,sup3,grid", help="dishonest-ballot family spec")
    sub.add_argument("--timing", action="store_true", help="include elapsed_ms in reports")
    sub.add_argument("--out", default=None, help="write the report to this path")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Quantum social choice rules and axiom checks over ranking spaces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser("evaluate", help="run a rule on a profile document")
    evaluate.add_argument("--rule", default="qcv")
    evaluate.add_argument("--profile", required=True, help="profile JSON path, or - for stdin")
    evaluate.add_argument("--delta", type=float, default=None)
    evaluate.add_argument("--eps", type=float, default=1e-9)
    evaluate.add_argument("--stages", action="store_true", help="include intermediate rule stages")
    evaluate.add_argument("--out", default=None)
    evaluate.add_argument("--format", choices=("json", "text"), default="json")
    evaluate.set_defaults(handler=cmd_evaluate)

    check = commands.add_parser("check", help="run one axiom check")
    check.add_argument("--axiom", required=True, choices=CHECK_AXIOMS)
    _add_common_check_flags(check)
    check.set_defaults(handler=cmd_check)

    suite = commands.add_parser("suite", help="run a bundled axiom suite")
    suite.add_argument("suite", choices=("arrow", "gs"))
    _add_common_check_flags(suite)
    suite.set_defaults(handler=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (QscError, OSError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
