"""Profile documents and wire formats.

Rankings travel as compact ``"a>b>c"`` strings, complex amplitudes as
``[re, im]`` pairs inside ``[re, im, ranking]`` terms, and densities as
term lists rather than raw matrices. A profile document carries either a
``voters`` list (product form) or a ``correlated`` term list, never both.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import InvalidArgument, ParseError
from .hilbert import (
    DEFAULT_EPS,
    AlternativeState,
    DensityOperator,
    ProfileState,
    RankingSpace,
    _as_float,
    mixed_state,
    pure_state,
)
from .rankings import AlternativeSet, Ranking, basis_table, ranking_index


# Items are joined by NUL, which ensure_ascii output never holds raw (a string's NUL is escaped).
_FLAT = json.JSONEncoder(sort_keys=True, separators=("\0", ": "))
_PLAIN = frozenset({str, int, float, bool, type(None)})
_SEQUENCES = frozenset({list, tuple})
_STR = frozenset({str})


def canonical_json(payload: dict) -> str:
    """The canonical bytes of a report: sorted keys, two-space indent, no trailing newline.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``,
    written through json's C encoder (``_rendered``).
    """
    return _rendered(payload, "\n")


def _rendered(value: Any, newline: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, each of its line breaks written as ``newline``.

    A nonempty list, tuple or str-keyed dict of plain scalars is encoded by
    json's C encoder in one call, and so is a list of nonempty lists or
    tuples of them (rows); Python only writes the line breaks and indents in
    place of the NUL separators. A row ends where "]" comes before a
    separator, since no scalar's text ends in "]". Other containers recurse.
    Anything else (a non-str key, a scalar subclass such as ``np.float64``)
    goes to ``json.dumps`` itself and is re-indented: all its line breaks are
    indents, since it escapes a string's newlines.
    """
    kind = type(value)
    if kind in _PLAIN:
        return _FLAT.encode(value)
    if kind is dict and value and _STR.issuperset(map(type, value)):
        items = value.values()
    elif kind in _SEQUENCES and value:
        items = value
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
    inner = newline + "  "
    if _PLAIN.issuperset(map(type, items)):
        text = _FLAT.encode(value)
        return text[0] + inner + text[1:-1].replace("\0", "," + inner) + newline + text[-1]
    if kind is dict:
        parts = [f"{_FLAT.encode(k)}: {_rendered(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if _SEQUENCES.issuperset(map(type, value)) and all(value) and _PLAIN.issuperset(map(type, chain(*value))):
        row = inner + "  "
        body = _FLAT.encode(value)[2:-2].replace("\0", "," + row)
        body = body.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        return "[" + inner + "[" + row + body + inner + "]" + newline + "]"
    return "[" + inner + ("," + inner).join([_rendered(v, inner) for v in value]) + newline + "]"


def format_probability(value: float) -> float:
    """Probabilities are reported with 12 significant digits."""
    return float(f"{value:.12g}")


def serialize_alternative_state(state: AlternativeState) -> dict[str, float]:
    return {name: format_probability(p) for name, p in state.as_dict().items()}


def _formatted(values: np.ndarray) -> list[float]:
    """``format_probability`` of each value, each distinct value formatted once.

    Weights repeat: an m=6 ``qcv`` report has 19 distinct weights in 495
    rows. Zeros format to themselves and are not looked up, since -0.0 and
    0.0 share a dict entry.
    """
    values = values.tolist()
    table = {w: format_probability(w) for w in set(values)}
    return [table[w] if w else w for w in values]


def serialize_density(state: DensityOperator, eps: float = DEFAULT_EPS) -> dict:
    """Term-list form: the pure ballot's amplitudes, else the basis weights, above eps."""
    strings = basis_table(state.space.alternatives).strings
    if state.amplitudes is None:
        support = np.flatnonzero(state.diagonal > eps)
        weights = _formatted(state.diagonal[support])
        return {"mixed": [[w, strings[k]] for w, k in zip(weights, support.tolist())]}
    support = np.flatnonzero(np.abs(state.amplitudes) > eps)
    amplitudes = state.amplitudes[support]
    terms = zip(_formatted(amplitudes.real), _formatted(amplitudes.imag), support.tolist())
    return {"pure": [[re, im, strings[k]] for re, im, k in terms]}


def serialize_profile(profile: ProfileState, eps: float = DEFAULT_EPS) -> dict:
    document: dict[str, Any] = {"alternatives": list(profile.space.alternatives.names)}
    if profile.factors is not None:
        document["voters"] = [serialize_density(b, eps) for b in profile.factors]
    else:
        strings = basis_table(profile.space.alternatives).strings
        document["correlated"] = [
            [format_probability(w), [strings[k] for k in key]] for w, key in profile.joint
        ]
    return document


def _parse_ranking(alternatives: AlternativeSet, text: Any, locus: str) -> Ranking:
    if not isinstance(text, str):
        raise ParseError(f"expected a ranking string, got {text!r}", locus)
    try:
        return Ranking.from_string(alternatives, text)
    except InvalidArgument as exc:
        raise ParseError(str(exc), locus) from None


def _parse_number(value: Any, locus: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", locus)
    # json.loads admits the Infinity/NaN literals and integers past the float range; they stop here.
    number = _as_float(value)
    if not math.isfinite(number):
        raise ParseError(f"expected a finite number, got {number!r}", locus)
    return number


# A ballot's shape -> its term's fields, the value its numbers give, and its builder.
_BALLOT_TERMS = {
    "pure": (("re", "im", "ranking"), complex, pure_state),
    "mixed": (("weight", "ranking"), float, lambda space, terms, eps: mixed_state(space, terms)),
}


def _parse_voter(space: RankingSpace, spec: Any, locus: str, eps: float) -> DensityOperator:
    if not isinstance(spec, dict):
        raise ParseError("voter ballot must be an object", locus)
    if len(spec) != 1 or not set(spec) <= _BALLOT_TERMS.keys():
        raise ParseError(
            f"voter ballot must have exactly one of 'pure' or 'mixed', got {sorted(spec)}", locus
        )
    ((shape, entries),) = spec.items()
    fields, value, build = _BALLOT_TERMS[shape]
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{shape} ballot needs a nonempty term list", f"{locus}.{shape}")
    terms = []
    for t, entry in enumerate(entries):
        term_locus = f"{locus}.{shape}[{t}]"
        if not isinstance(entry, list) or len(entry) != len(fields):
            raise ParseError(f"{shape} term must be [{', '.join(fields)}]", term_locus)
        numbers = [_parse_number(x, term_locus) for x in entry[:-1]]
        terms.append((value(*numbers), _parse_ranking(space.alternatives, entry[-1], term_locus)))
    try:
        return build(space, terms, eps)
    except InvalidArgument as exc:
        raise ParseError(str(exc), f"{locus}.{shape}") from None


def parse_density(space: RankingSpace, document: dict, eps: float = DEFAULT_EPS) -> DensityOperator:
    """Parse a single serialized ballot (term-list form)."""
    return _parse_voter(space, document, "ballot", eps)


def parse_profile(document: str | dict, eps: float = DEFAULT_EPS) -> ProfileState:
    """Parse and validate a profile document (JSON text or loaded object)."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
        except RecursionError:
            raise ParseError("document nests too deeply to parse", "$") from None
        except ValueError:  # an integer literal past int()'s digit limit
            raise ParseError("document holds an integer of too many digits to parse", "$") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise ParseError("profile document must be a JSON object", "$")

    labels = data.get("alternatives")
    if not isinstance(labels, list) or not labels:
        raise ParseError("'alternatives' must be a nonempty list of labels", "alternatives")
    if not all(isinstance(x, str) for x in labels):
        raise ParseError("alternative labels must be strings", "alternatives")
    try:
        alternatives = AlternativeSet(tuple(labels))
    except InvalidArgument as exc:
        raise ParseError(str(exc), "alternatives") from None
    space = RankingSpace(alternatives)

    has_voters = "voters" in data
    has_correlated = "correlated" in data
    if has_voters and has_correlated:
        raise ParseError("document cannot mix 'voters' and 'correlated' blocks", "$")
    if not has_voters and not has_correlated:
        raise ParseError("document needs a 'voters' or 'correlated' block", "$")

    unknown = set(data) - {"alternatives", "voters", "correlated"}
    if unknown:
        raise ParseError(f"unknown top-level fields {sorted(unknown)}", "$")

    if has_voters:
        voters = data["voters"]
        if not isinstance(voters, list) or not voters:
            raise ParseError("'voters' must be a nonempty list", "voters")
        ballots = [
            _parse_voter(space, spec, f"voters[{v}]", eps) for v, spec in enumerate(voters)
        ]
        return ProfileState.product_of(ballots)

    entries = data["correlated"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("'correlated' must be a nonempty term list", "correlated")
    string_index = basis_table(alternatives).string_index
    terms = []
    for t, entry in enumerate(entries):
        locus = f"correlated[{t}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("correlated term must be [weight, [rankings...]]", locus)
        weight = _parse_number(entry[0], locus)
        if weight <= 0:
            raise ParseError(f"correlated weight must be positive, got {weight}", locus)
        strings = entry[1]
        if not isinstance(strings, list) or not strings:
            raise ParseError("correlated term needs one ranking per voter", locus)
        # A key of compact spellings is looked up; any other goes to the parser, which reads padding and names faults.
        try:
            key = tuple(map(string_index.__getitem__, strings))
        except (KeyError, TypeError):
            key = tuple(ranking_index(_parse_ranking(alternatives, r, f"{locus}[{k}]")) for k, r in enumerate(strings))
        terms.append((weight, key))
    try:
        return ProfileState.correlated_indices(space, terms)
    except InvalidArgument as exc:
        raise ParseError(str(exc), "correlated") from None
