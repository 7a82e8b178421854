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
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from . import serde
from .choice import ChoiceRule, compose, qcvne_rule
from .errors import InvalidArgument, ParseError, QscError
from .hilbert import ProfileState, RankingSpace
from .rankings import AlternativeSet, Ranking
from .welfare import QcvParams, WelfareRule, default_delta, dictator_rule, qcv_basis, qcv_rule, veto_rule

if TYPE_CHECKING:
    from .axioms import CandidateBallotFamily

# Cap on --voters, checked before a sampler is built: 5,000 ballots at m=6 hold
# 3,600,000 basis weights, inside the 4,000,000 ``axioms.FAMILY_WEIGHT_CAP`` allows a family.
MAX_VOTERS = 5_000

CHECK_AXIOMS = ("qic", "dictatorship", "onto", "unanimity", "iia", "arrow-suite", "gs-suite")
CHOICE_AXIOMS = {"onto", "gs-suite"}

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
    if not 2 <= m <= len(string.ascii_lowercase):
        raise InvalidArgument(f"--alternatives must lie in [2, {len(string.ascii_lowercase)}], got {m}")
    return AlternativeSet(tuple(string.ascii_lowercase[:m]))


def parse_family(spec: str) -> CandidateBallotFamily:
    """Parse a --family spec like ``basis,sup2,sup3,grid:0.25,random:16``."""
    from .axioms import CandidateBallotFamily

    settings: dict[str, Any] = {
        "basis": False, "pair_superpositions": False, "triple_superpositions": False,
        "mixture_grid_step": 0.0,
    }
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        name, _, arg = token.partition(":")
        try:
            if name == "basis":
                settings["basis"] = True
            elif name == "sup2":
                settings["pair_superpositions"] = True
            elif name == "sup3":
                settings["triple_superpositions"] = True
            elif name == "grid":
                settings["mixture_grid_step"] = float(arg) if arg else 0.25
            elif name == "random":
                settings["random_pure"] = int(arg) if arg else 16
            elif name == "seed":
                settings["random_seed"] = int(arg)
            else:
                raise ParseError(f"unknown family token {token!r}", "family")
        except ValueError as exc:
            raise ParseError(f"bad family token {token!r}: {exc}", "family") from None
    try:
        return CandidateBallotFamily(**settings)
    except InvalidArgument as exc:
        raise ParseError(f"bad family {spec!r}: {exc}", "family") from None


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
        except InvalidArgument:
            names = alternatives.names
            raise ParseError(
                f"rule {name!r} must order each of the alternatives {', '.join(names)} "
                f"exactly once, e.g. veto:{'>'.join(names)}",
                "rule",
            ) from None
        return veto_rule(ranking, params.eps)
    raise ParseError(f"unknown rule {name!r}", "rule")


def _rule_family(name: str) -> str:
    return name.partition(":")[0]


def _write_report(payload: dict, args) -> None:
    if args.format == "json":
        text = serde.canonical_json(payload) + "\n"
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
    """The kernel's stages for a profile supported on one basis-index tuple (``qcv_basis``)."""
    tuples = profile.support_tuples(params.eps)
    if len(tuples) != 1:
        raise InvalidArgument(
            "--stages needs a profile supported on a single ranking tuple; "
            f"this one mixes {len(tuples)}"
        )
    stages = qcv_basis(profile.space.alternatives, tuples[0][1], params)
    return {
        "scores": stages.scores,
        "weak_order": [list(tier) for tier in stages.tiers],
        "extensions": list(stages.extensions),
        "pairs_any": [list(p) for p in stages.pairs_any],
        "pairs_all": [list(p) for p in stages.pairs_all],
        "sigma1": serde.serialize_density(stages.sigma1, params.eps),
        "sigma2": serde.serialize_density(stages.sigma2, params.eps),
        "sigma3": serde.serialize_density(stages.sigma3, params.eps),
    }


def _rule_and_params(args, alternatives: AlternativeSet) -> tuple[WelfareRule | ChoiceRule, QcvParams]:
    """The ``--rule`` named, and the Condorcet parameters of ``--delta`` and ``--eps``, checked for the alternatives."""
    delta = args.delta if args.delta is not None else default_delta(alternatives.m)
    params = QcvParams(delta=delta, eps=args.eps)
    params.check_alternatives(alternatives.m)
    return resolve_rule(args.rule, alternatives, params), params


def cmd_evaluate(args) -> int:
    if args.stages and _rule_family(args.rule) not in ("qcv", "qcvne"):
        raise ParseError(f"--stages only applies to Condorcet rules, not {args.rule!r}", "rule")
    if args.profile == "-":
        text = sys.stdin.read()
    else:
        with open(args.profile, "r", encoding="utf-8") as handle:
            text = handle.read()
    profile = serde.parse_profile(text, args.eps)
    rule, params = _rule_and_params(args, profile.space.alternatives)
    stages = _stages_payload(profile, params) if args.stages else None
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
    if stages is not None:
        payload["stages"] = stages
    _write_report(payload, args)
    return 0


def _run_check(args, axiom: str) -> int:
    # The axiom engine is loaded here, on first use: ``evaluate`` never reads it.
    from . import axioms

    alternatives = _default_labels(args.alternatives)
    if args.trials < 1:
        raise InvalidArgument(f"--trials must be at least 1, got {args.trials}")
    if args.voters > MAX_VOTERS:
        raise InvalidArgument(f"--voters must be at most {MAX_VOTERS}, got {args.voters}")
    # One voter is a dictator under every rule: the unanimity projection returns that voter's ballot.
    if args.voters < 2 and axiom in ("dictatorship", "arrow-suite", "gs-suite"):
        raise InvalidArgument(f"{axiom} needs --voters of at least 2, got {args.voters}")
    space = RankingSpace(alternatives)
    rule, _ = _rule_and_params(args, alternatives)
    family = parse_family(args.family)

    if axiom in CHOICE_AXIOMS and isinstance(rule, WelfareRule):
        rule = compose(rule, args.eps)

    sampler = axioms.default_profile_sampler(space, args.voters)
    if axiom == "qic":
        report = axioms.check_qic(rule, sampler, family, args.trials, args.seed, args.eps)
    elif axiom == "dictatorship":
        report = axioms.check_dictatorship(rule, space, sampler, args.trials, args.seed, args.eps)
    elif axiom == "onto":
        report = axioms.check_onto(rule, alternatives, args.voters, args.eps)
    elif axiom == "unanimity":
        report = axioms.check_unanimity(rule, space, sampler, args.trials, args.seed, args.eps)
    elif axiom == "iia":
        paired = axioms.default_paired_sampler(space, args.voters)
        report = axioms.check_iia(rule, space, paired, args.trials, args.seed, args.eps)
    elif axiom == "arrow-suite":
        report = axioms.run_arrow_suite(rule, alternatives, args.voters, args.trials, args.seed, args.eps)
    else:
        report = axioms.run_gs_suite(rule, alternatives, args.voters, args.trials, args.seed, args.eps, family)

    payload = report.to_jsonable(include_elapsed=args.timing)
    payload.update(alternatives=list(alternatives.names), voters=args.voters)
    _write_report(payload, args)
    expected = axioms.EXPECTED_VERDICTS.get((_rule_family(args.rule), axiom))
    if expected is not None and report.verdict != expected:
        return 1
    return 0


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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the one-JSON-line error contract."""

    def error(self, message: str):
        raise ParseError(message, "usage")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    check.set_defaults(handler=lambda args: _run_check(args, args.axiom))

    suite = commands.add_parser("suite", help="run a bundled axiom suite")
    suite.add_argument("suite", choices=("arrow", "gs"))
    _add_common_check_flags(suite)
    suite.set_defaults(handler=lambda args: _run_check(args, f"{args.suite}-suite"))

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first ``main`` call: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ParseError as exc:
        _emit_error(exc)
        return 2
    try:
        return args.handler(args)
    except (QscError, OSError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
