"""Command-line front end.

Three commands: ``evaluate`` runs a rule on a profile document, ``check``
runs one axiom check or a bundled suite, and ``suite`` is shorthand for
the two bundles. Reports are canonical JSON: same seed and flags give
byte-identical bytes (wall-clock timing is opt-in via --timing).

Exit codes: 0 for expected verdicts, 1 when a rule with a known expected
verdict produced a different one, 2 for usage or input errors.
"""

from __future__ import annotations

import json
import math
import os
import string
import sys
from types import SimpleNamespace
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
    record: dict[str, Any] = {"error": getattr(exc, "kind", "error"), "message": str(exc)}
    if getattr(exc, "locus", None):
        record["locus"] = exc.locus
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _default_labels(m: int) -> AlternativeSet:
    if not 2 <= m <= len(string.ascii_lowercase):
        raise InvalidArgument(f"--alternatives must lie in [2, {len(string.ascii_lowercase)}], got {m}")
    return AlternativeSet(tuple(string.ascii_lowercase[:m]))


# Each --family token: the family field it sets, the reader of its argument (None for a switch, which
# takes none), and the value of the bare token (None when it needs an argument).
_FAMILY_TOKENS = {
    "basis": ("basis", None, True),
    "sup2": ("pair_superpositions", None, True),
    "sup3": ("triple_superpositions", None, True),
    "grid": ("mixture_grid_step", float, 0.25),
    "random": ("random_pure", int, 16),
    "seed": ("random_seed", int, None),
}


def parse_family(spec: str) -> CandidateBallotFamily:
    """Parse a --family spec like ``basis,sup2,sup3,grid:0.25,random:16``."""
    from .axioms import CandidateBallotFamily

    settings: dict[str, Any] = dict(basis=False, pair_superpositions=False, triple_superpositions=False,
                                    mixture_grid_step=0.0)
    for token in filter(None, map(str.strip, spec.split(","))):
        name, colon, arg = token.partition(":")
        if name not in _FAMILY_TOKENS:
            raise ParseError(f"unknown family token {token!r}", "family")
        field, read, bare = _FAMILY_TOKENS[name]
        try:
            if colon and read is None:
                raise ValueError(f"{name} takes no argument")
            settings[field] = read(arg) if arg or bare is None else bare
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
        # An optional "-" and ASCII digits only: int() alone also reads spaces, "+", "_" and
        # other scripts' digits, so anything else reaches it as "" and is refused.
        try:
            voter = int(arg if arg.isascii() and arg.removeprefix("-").isdigit() else "")
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
    """The kernel's stages for a profile supported on one basis-index tuple (``qcv_basis``).

    The support is read as the rule's fold reads it: each ballot's basis
    weights above eps, or the distinct keys of the joint terms above eps.
    Nothing is enumerated: a product's count is the product of its ballots'
    support sizes. A profile that keeps nothing is refused as the rule
    refuses it.
    """
    if profile.factors is not None:
        supports = [ballot.diagonal_support(params.eps) for ballot in profile.factors]
        count, key = math.prod(map(len, supports)), tuple(support[0][0] for support in supports if support)
    else:
        keys = {key for w, key in profile.joint if w > params.eps}
        count, key = len(keys), next(iter(keys), ())
    if count != 1:
        shown = count if count < 10**600 else "over 10^600"  # str() may refuse a longer count
        raise InvalidArgument("--stages needs a profile supported on a single ranking tuple; "
                              f"this one mixes {shown}" if count else "profile has no diagonal support")
    stages = qcv_basis(profile.space.alternatives, key, params)
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


# Each command's flags: name -> (kind, default, help). A kind is int, float or str, which reads the
# value; a tuple of the values allowed; or bool, a switch that takes no value. A name without
# dashes is set by the first bare token.
REQUIRED = object()
_COMMON_FLAGS = {
    "--rule": (str, "qcv", "qcv | qcvne | dictator:N | veto:a>b>c"),
    "--delta": (float, None, "spread weight; None picks it from the number of alternatives"),
    "--eps": (float, 1e-9, "numerical tolerance, in [1e-12, 1e-3]"),
    "--out": (str, None, "write the report to this path; None writes it to stdout"),
    "--format": (("json", "text"), "json", "report format: json or text"),
}
_CHECK_FLAGS = {
    **_COMMON_FLAGS,
    "--alternatives": (int, 3, "number of alternatives, named a, b, ..."),
    "--voters": (int, 3, "number of voters"),
    "--trials": (int, 200, "sampled profiles per check"),
    "--seed": (int, 0, "sampler seed"),
    "--family": (str, "basis,sup2,sup3,grid", "dishonest-ballot family spec"),
    "--timing": (bool, False, "include elapsed_ms in reports"),
}
# Each command: its help line, its flags and its handler.
COMMANDS = {
    "evaluate": ("run a rule on a profile document", {
        "--profile": (str, REQUIRED, "profile JSON path, or - for stdin"), **_COMMON_FLAGS,
        "--stages": (bool, False, "include intermediate rule stages"),
    }, cmd_evaluate),
    "check": ("run one axiom check", {"--axiom": (CHECK_AXIOMS, REQUIRED, " | ".join(CHECK_AXIOMS)), **_CHECK_FLAGS},
              lambda args: _run_check(args, args.axiom)),
    "suite": ("run a bundled axiom suite", {"suite": (("arrow", "gs"), REQUIRED, "arrow | gs"), **_CHECK_FLAGS},
              lambda args: _run_check(args, f"{args.suite}-suite")),
}


def _usage(message: str) -> ParseError:
    return ParseError(message, "usage")


def _read(name: str, kind, text: str):
    """``text`` read as the ``kind`` of a flag table."""
    if isinstance(kind, tuple) and text not in kind:
        raise _usage(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    try:
        return text if isinstance(kind, tuple) else kind(text)
    except ValueError:
        raise _usage(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None


def _help(command: str) -> str:
    summary, flags, _ = COMMANDS[command]
    lines = [f"  {name:<16} {text} ({'required' if default is REQUIRED else f'default: {default}'})"
             for name, (_, default, text) in flags.items()]
    return "\n".join([f"qsc {command}: {summary}", *lines])


def read_args(argv: list[str]) -> SimpleNamespace | None:
    """The flags and handler of the command that ``argv`` names, or None once the help it asks for is printed.

    ``--flag value`` and ``--flag=value`` set a flag, the last one given wins,
    and a unique prefix names its flag. A token starting with ``--`` is never
    a value and every other token is, so ``--seed -5`` and ``--profile -``
    read as written. Each usage fault raises ``ParseError`` at locus ``usage``.
    """
    if not argv:
        raise _usage("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        print("usage: qsc COMMAND [flags]\n\n" + "\n\n".join(map(_help, COMMANDS)))
        return None
    command = _read("command", tuple(COMMANDS), argv[0])
    _, flags, handler = COMMANDS[command]
    values = {name: default for name, (_, default, _) in flags.items()}
    bare = [name for name in flags if not name.startswith("--")]
    rest = iter(argv[1:])
    for token in rest:
        given, has_value, value = ("--help" if token == "-h" else token).partition("=")
        if not given.startswith("--"):  # the value of the command's bare name, if it is still unset
            if not bare or values[bare[0]] is not REQUIRED:
                raise _usage(f"unrecognized arguments: {token}")
            given, has_value, value = bare[0], True, token
        matches = [given] if given in flags else [name for name in (*flags, "--help") if name.startswith(given)]
        if len(matches) != 1:
            raise _usage(f"ambiguous option: {given} could match {', '.join(matches)}" if matches
                         else f"unrecognized arguments: {token}")
        name = matches[0]
        if name == "--help":
            print(_help(command))
            return None
        kind = flags[name][0]
        if kind is bool and has_value:
            raise _usage(f"argument {name}: ignored explicit argument {value!r}")
        if kind is not bool and not has_value:
            value = next(rest, "--")
            if value.startswith("--"):
                raise _usage(f"argument {name}: expected one argument")
        values[name] = True if kind is bool else _read(name, kind, value)
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise _usage(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(handler=handler, **{name.lstrip("-"): v for name, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        # An --out that no report could be written to is refused before any work is done.
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise InvalidArgument(f"--out {args.out!r} names a directory, or a file in a missing directory")
        return args.handler(args)
    except (QscError, OSError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
