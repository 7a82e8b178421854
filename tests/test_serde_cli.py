import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc import (
    AlternativeSet, ParseError, ProfileState, QcvParams, Ranking, axioms, choice, cli, errors, qcv, qcvne,
    rankings, serde, welfare,
)
from qsc.errors import InvalidArgument, ZeroMassProjection
from qsc.axioms import EXPECTED_VERDICTS, default_profile_sampler
from qsc.cli import main, parse_family, resolve_rule
from qsc.rankings import all_rankings
from qsc.hilbert import DensityOperator, RankingSpace, mixed_state, pure_state
from qsc.serde import (
    canonical_json, format_probability, parse_profile, serialize_density, serialize_profile,
)

SPLIT_TOP_DOC = {
    "alternatives": ["x", "y", "z"],
    "voters": [
        {"pure": [[0.7071, 0, "x>y>z"], [0.7071, 0, "y>x>z"]]},
        {"pure": [[1, 0, "z>x>y"]]},
    ],
}

ABC = ["a", "b", "c"]
# Each malformed document's fields past "alternatives" (a, b, c unless given),
# and the locus and message of its parse error.
MALFORMED_DOCUMENTS = {
    "string-term-value": ({"voters": [{"mixed": [["1", "a>b>c"]]}]},
                          "voters[0].mixed[0]", "expected a number, got '1'"),
    "bool-term-value": ({"voters": [{"pure": [[True, 0, "a>b>c"]]}]},
                        "voters[0].pure[0]", "expected a number, got True"),
    "ballot-not-object": ({"voters": [["mixed"]]}, "voters[0]", "voter ballot must be an object"),
    "ballot-both-shapes": ({"voters": [{"mixed": [[1, "a>b>c"]], "pure": [[1, 0, "a>b>c"]]}]}, "voters[0]",
                           "voter ballot must have exactly one of 'pure' or 'mixed', got ['mixed', 'pure']"),
    "ballot-no-shape": ({"voters": [{}]}, "voters[0]",
                        "voter ballot must have exactly one of 'pure' or 'mixed', got []"),
    "empty-term-list": ({"voters": [{"mixed": []}]}, "voters[0].mixed", "mixed ballot needs a nonempty term list"),
    "term-list-not-list": ({"voters": [{"pure": {"re": 1}}]},
                           "voters[0].pure", "pure ballot needs a nonempty term list"),
    "term-wrong-length": ({"voters": [{"pure": [[1, "a>b>c"]]}]},
                          "voters[0].pure[0]", "pure term must be [re, im, ranking]"),
    "label-not-string": ({"alternatives": ["a", 2, "c"], "voters": [{"mixed": [[1, "a>b>c"]]}]},
                         "alternatives", "alternative labels must be strings"),
    "no-block": ({}, "$", "document needs a 'voters' or 'correlated' block"),
    "unknown-field": ({"voters": [{"mixed": [[1, "a>b>c"]]}], "weights": []},
                      "$", "unknown top-level fields ['weights']"),
    "empty-voters": ({"voters": []}, "voters", "'voters' must be a nonempty list"),
    "empty-correlated": ({"correlated": []}, "correlated", "'correlated' must be a nonempty term list"),
    "correlated-term-shape": ({"correlated": [[1, "a>b>c", "b>a>c"]]},
                              "correlated[0]", "correlated term must be [weight, [rankings...]]"),
    "correlated-weight-zero": ({"correlated": [[0, ["a>b>c"]]]},
                               "correlated[0]", "correlated weight must be positive, got 0.0"),
    "correlated-weight-negative": ({"correlated": [[-0.5, ["a>b>c"]]]},
                                   "correlated[0]", "correlated weight must be positive, got -0.5"),
    "empty-ranking-list": ({"correlated": [[1, []]]},
                           "correlated[0]", "correlated term needs one ranking per voter"),
    "ranking-list-not-list": ({"correlated": [[1, "a>b>c"]]},
                              "correlated[0]", "correlated term needs one ranking per voter"),
}


def rk(alts, text):
    return Ranking.from_string(alts, text)


class TestParseProfile:
    def test_split_top_document(self, xyz_space):
        profile = parse_profile(json.dumps(SPLIT_TOP_DOC))
        rho1 = profile.partial_ballot(1)
        assert rho1.diagonal[rho1.space.basis_index(rk(rho1.space.alternatives, "x>y>z"))] == pytest.approx(0.5)
        assert profile.n_voters == 2

    def test_mixed_ballot(self):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[0.5, "a>b>c"], [0.5, "b>a>c"]]}],
        }
        profile = parse_profile(doc)
        diag = profile.partial_ballot(1).diagonal
        assert diag[0] == pytest.approx(0.5)

    def test_correlated_party_line(self):
        doc = {
            "alternatives": ["a", "b", "c"],
            "correlated": [[0.5, ["a>b>c", "a>b>c"]], [0.5, ["b>a>c", "b>a>c"]]],
        }
        profile = parse_profile(doc)
        assert profile.joint is not None
        one = profile.partial_ballot(1).diagonal
        two = profile.partial_ballot(2).diagonal
        assert np.allclose(one, two)

    def test_rejects_both_blocks(self):
        doc = {
            "alternatives": ["a", "b"],
            "voters": [{"mixed": [[1, "a>b"]]}],
            "correlated": [[1.0, ["a>b"]]],
        }
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_unknown_label_reports_locus(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"mixed": [[1, "a>q"]]}]}
        with pytest.raises(ParseError) as err:
            parse_profile(doc)
        assert err.value.locus == "voters[0].mixed[0]"

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_profile("{\n  broken")
        assert "line" in err.value.locus

    def test_too_deep_document_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_profile('{"alternatives": ' + "[" * 5000 + "]" * 5000 + "}")
        assert err.value.locus == "$"

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "block, locus",
        [
            ('"voters":[{"mixed":[[%s,"a>b"]]}]', "voters[0].mixed[0]"),
            ('"voters":[{"pure":[[%s,0,"a>b"]]}]', "voters[0].pure[0]"),
            ('"correlated":[[%s,["a>b"]]]', "correlated[0]"),
        ],
    )
    def test_integer_past_the_float_range_is_refused_like_infinity(self, block, locus, sign):
        # float() of a 400-digit integer overflows; it reads as the infinity of its sign.
        text = '{"alternatives":["a","b"],' + block % (sign + "1" + "0" * 399) + "}"
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert (err.value.locus, str(err.value)) == (locus, f"expected a finite number, got {sign}inf")
        with pytest.raises(ParseError) as err:
            parse_profile(json.loads(text))
        assert err.value.locus == locus

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        # json.loads raises a ValueError that is not a JSONDecodeError for it.
        with pytest.raises(ParseError) as err:
            parse_profile('{"alternatives":["a","b"],"voters":[{"mixed":[[1' + "0" * 5000 + ',"a>b"]]}]}')
        assert err.value.locus == "$"

    @pytest.mark.parametrize("case", list(MALFORMED_DOCUMENTS))
    def test_malformed_document_names_kind_locus_and_message(self, case):
        fields, locus, message = MALFORMED_DOCUMENTS[case]
        with pytest.raises(ParseError) as err:
            parse_profile(json.dumps({"alternatives": ABC, **fields}))
        assert (err.value.kind, err.value.locus, str(err.value)) == ("parse-error", locus, message)

    def test_zero_ballot_rejected(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"pure": [[0, 0, "a>b"]]}]}
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_negative_mixture_weight_rejected(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"mixed": [[-0.5, "a>b"]]}]}
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_nonfinite_numbers_rejected_with_locus(self):
        # json.loads happily yields inf/nan from bare literals.
        text = '{"alternatives":["a","b"],"voters":[{"mixed":[[Infinity,"a>b"]]}]}'
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert err.value.locus == "voters[0].mixed[0]"
        text = '{"alternatives":["a","b"],"voters":[{"pure":[[NaN,0,"a>b"]]}]}'
        with pytest.raises(ParseError):
            parse_profile(text)

    def test_overflowing_correlated_total_normalizes(self):
        # Each weight is finite but their sum is not; the weights are scaled by a power
        # of two before the sum, as a ballot's are, so the document normalizes.
        doc = {
            "alternatives": ["a", "b", "c"],
            "correlated": [[1e308, ["a>b>c", "b>a>c"]], [1e308, ["b>a>c", "a>b>c"]]],
        }
        assert serialize_profile(parse_profile(doc))["correlated"] == [
            [0.5, ["a>b>c", "b>a>c"]], [0.5, ["b>a>c", "a>b>c"]],
        ]
        # The scaling is exact: any power-of-two scale gives the unit document's bytes.
        def scaled(scale):
            return {"alternatives": ["a", "b", "c"],
                    "correlated": [[scale, ["a>b>c", "b>a>c"]], [3 * scale, ["b>a>c", "a>b>c"]]]}

        unit = serialize_profile(parse_profile(scaled(1.0)))
        for scale in (2.0**-600, 2.0**-40, 2.0**1022):
            assert serialize_profile(parse_profile(scaled(scale))) == unit

    @pytest.mark.parametrize(
        "weights",
        [[2.0**-600, 3 * 2.0**-600], [1.0, 3.0], [2.0**600, 3 * 2.0**600], [2.0**1022, 3 * 2.0**1022],
         [0.1] * 10, [0.5, 0.5 - 1e-9 - 2.0**-53, 1e-9]],
        ids=["tiny", "unit", "huge", "top", "tenths", "near-eps"],
    )
    def test_python_terms_normalize_as_their_document_does(self, weights):
        # One normalization serves both routes: the same weight bits and support.
        space = RankingSpace(AlternativeSet(("a", "b", "c")))
        strings = [r.to_string() for r in space.rankings()]
        terms = [(w, (t % 6, (t + 1) % 6)) for t, w in enumerate(weights)]
        document = {"alternatives": ["a", "b", "c"], "correlated": [[w, [strings[k] for k in key]] for w, key in terms]}
        python, parsed = ProfileState.correlated_indices(space, terms), parse_profile(document)
        assert [(w.hex(), key) for w, key in python.joint] == [(w.hex(), key) for w, key in parsed.joint]
        assert [(w.hex(), key) for w, key in python.support_tuples()] == [
            (w.hex(), key) for w, key in parsed.support_tuples()
        ]

    def test_a_weight_that_underflows_once_normalized_is_refused_on_both_routes(self):
        space = RankingSpace(AlternativeSet(("a", "b", "c")))
        message = "^correlated weights must be positive, got 0.0$"
        with pytest.raises(InvalidArgument, match=message):
            ProfileState.correlated_indices(space, [(2.0**900, (0,)), (2.0**-900, (1,))])
        document = {"alternatives": ["a", "b", "c"], "correlated": [[2.0**900, ["a>b>c"]], [2.0**-900, ["a>c>b"]]]}
        with pytest.raises(ParseError, match=message) as err:
            parse_profile(document)
        assert err.value.locus == "correlated"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_roundtrip_preserves_evaluations(self, space3, seed):
        sampler = default_profile_sampler(space3, 3)
        rng = random.Random(seed)
        params = QcvParams(0.05)
        profile = sampler(rng)
        rebuilt = parse_profile(serialize_profile(profile))
        original = qcvne(profile, params).as_dict()
        recovered = qcvne(rebuilt, params).as_dict()
        for name, value in original.items():
            assert recovered[name] == pytest.approx(value, abs=1e-12)


def reference_from_string(alternatives, text):
    """``Ranking.from_string`` as it was before the basis-table lookup: split, strip, read each label."""
    parts = [p.strip() for p in text.split(">")]
    if any(not p for p in parts):
        raise InvalidArgument(f"malformed ranking string {text!r}")
    return Ranking.from_labels(alternatives, parts)


def reference_outcome(alternatives, text):
    """The order the reference parse reads, or its error message."""
    try:
        return reference_from_string(alternatives, text).order
    except InvalidArgument as exc:
        return str(exc)


RANKING_SPELLINGS = [
    # canonical
    "a>b>c", "c>b>a", "b>c>a",
    # padded around labels
    "a > b > c", " a>b>c ", "\tb >c\n> a", "c>b >a", "\u2003a>b>c",
    # invalid: unknown label, repeated label, missing label, empty part
    "a>b>q", "A>B>C", "ab>c", "a>a>c", "a>b>c>a", "a>b", "a", "a>>c", "", ">", "a>b>c>", " >a>b",
]


@st.composite
def correlated_entries(draw):
    """Correlated terms of n canonical or padded spellings each; at most one term then
    gets an invalid entry in place of one spelling, or one ranking too many."""
    valid = [t for t in RANKING_SPELLINGS if not isinstance(reference_outcome(AlternativeSet(tuple("abc")), t), str)]
    invalid = [t for t in RANKING_SPELLINGS if t not in valid] + [None, 3, ["a>b>c"]]
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([1, 2, 0.5, 3.25, 7, 1e-10]), min_size=1, max_size=5))
    entries = [(w, draw(st.lists(st.sampled_from(valid), min_size=n, max_size=n))) for w in weights]
    fault = draw(st.sampled_from([None, "spelling", "length"]))
    texts = draw(st.sampled_from(entries))[1]
    if fault == "spelling":
        texts[draw(st.integers(0, n - 1))] = draw(st.sampled_from(invalid))
    elif fault == "length":
        texts.append("a>b>c")
    return entries


class TestRankingStrings:
    """Every entry point that reads a ranking string reads what the label-by-label parse read."""

    @pytest.mark.parametrize("text", RANKING_SPELLINGS)
    def test_from_string(self, alts3, text):
        expected = reference_outcome(alts3, text)
        try:
            ranking = Ranking.from_string(alts3, text)
        except InvalidArgument as exc:
            assert str(exc) == expected
            return
        assert ranking.order == expected

    @given(text=st.text("abc> \t", max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_from_string_on_any_text(self, text):
        alts = AlternativeSet(("a", "b", "c"))
        try:
            outcome = Ranking.from_string(alts, text).order
        except InvalidArgument as exc:
            outcome = str(exc)
        assert outcome == reference_outcome(alts, text)

    @pytest.mark.parametrize("shape", ["mixed", "pure"])
    @pytest.mark.parametrize("text", RANKING_SPELLINGS)
    def test_voter_ballot(self, alts3, shape, text):
        term = [1, text] if shape == "mixed" else [1, 0, text]
        doc = {"alternatives": ["a", "b", "c"], "voters": [{shape: [term]}, {"mixed": [[1, "a>b>c"]]}]}
        expected = reference_outcome(alts3, text)
        try:
            profile = parse_profile(doc)
        except ParseError as exc:
            assert (str(exc), exc.locus) == (expected, f"voters[0].{shape}[0]")
            return
        diag = profile.partial_ballot(1).diagonal
        assert diag.tolist() == [float(k == rankings.basis_table(alts3).index[expected]) for k in range(6)]

    @pytest.mark.parametrize("text", RANKING_SPELLINGS)
    def test_correlated_term(self, alts3, text):
        doc = {"alternatives": ["a", "b", "c"], "correlated": [[2, ["c>a>b", text]]]}
        expected = reference_outcome(alts3, text)
        try:
            profile = parse_profile(doc)
        except ParseError as exc:
            assert (str(exc), exc.locus) == (expected, "correlated[0][1]")
            return
        assert profile.joint == ((1.0, (4, rankings.basis_table(alts3).index[expected])),)

    @given(entries=correlated_entries())
    @settings(max_examples=300, deadline=None)
    def test_correlated_document_reads_as_through_rankings(self, entries):
        # The index path keeps the joint keys and weight bits, or the error and
        # its locus, of ``ProfileState.correlated`` fed ``Ranking.from_string``.
        alts = AlternativeSet(("a", "b", "c"))
        doc = {"alternatives": list(alts.names), "correlated": [[w, list(texts)] for w, texts in entries]}
        try:
            joint = parse_profile(doc).joint
        except ParseError as exc:
            outcome = (str(exc), exc.locus)
        else:
            outcome = [(w.hex(), key) for w, key in joint]
        assert outcome == correlated_through_rankings(alts, entries)

    @pytest.mark.parametrize("text", RANKING_SPELLINGS)
    def test_veto_rule(self, alts3, text):
        name = f"veto:{text}"
        expected = reference_outcome(alts3, text)
        try:
            rule = resolve_rule(name, alts3, QcvParams.for_alternatives(3))
        except ParseError as exc:
            assert isinstance(expected, str) and exc.locus == "rule"
            assert str(exc) == (
                f"rule {name!r} must order each of the alternatives a, b, c exactly once, "
                "e.g. veto:a>b>c"
            )
            return
        assert rule.name == "veto:" + ">".join("abc"[i] for i in expected)


def correlated_through_rankings(alternatives, entries):
    """A valid-weight correlated block read ranking by ranking: each string through
    ``Ranking.from_string``, the terms as written through ``ProfileState.correlated``.
    Gives the (hex weight, key) terms, or the (message, locus) of the first error."""
    terms = []
    for t, (weight, texts) in enumerate(entries):
        parsed = []
        for k, text in enumerate(texts):
            if not isinstance(text, str):
                return (f"expected a ranking string, got {text!r}", f"correlated[{t}][{k}]")
            try:
                parsed.append(Ranking.from_string(alternatives, text))
            except InvalidArgument as exc:
                return (str(exc), f"correlated[{t}][{k}]")
        terms.append((float(weight), tuple(parsed)))
    try:
        profile = ProfileState.correlated(RankingSpace(alternatives), terms)
    except InvalidArgument as exc:
        return (str(exc), "correlated")
    return [(w.hex(), key) for w, key in profile.joint]


def reference_serialize_density(state, eps):
    """``serialize_density`` as it was before it wrote from the basis table: one term list of
    ``Ranking`` objects, each written with ``to_string``."""
    basis = state.space.rankings()
    if state.amplitudes is None:
        diag = state.diagonal
        terms = [(float(diag[k]), basis[k]) for k in np.flatnonzero(diag > eps)]
        return {"mixed": [[format_probability(w), r.to_string()] for w, r in terms]}
    vector = state.amplitudes
    terms = [(complex(vector[k]), basis[k]) for k in np.flatnonzero(np.abs(vector) > eps)]
    return {
        "pure": [
            [format_probability(amp.real), format_probability(amp.imag), r.to_string()]
            for amp, r in terms
        ]
    }


def near(value, ulps):
    """``value`` moved by ``ulps`` units in the last place (down if negative)."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


# Scalars json writes in every form it knows; the text holds what its C encoder escapes.
_json_text = st.text(
    st.sampled_from(["\0", "[", "]", "{", "}", '"', "\\", "\n", ",", ":", " ", "a", "é", "\u2603", "\U0001f600"])
)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.floats().map(np.float64)
    | _json_text
    | st.text()
)
# Each dict's keys are of one kind (str; int, float and bool, which sort together; or None):
# json cannot sort mixed keys.
_json_keys = [_json_text, st.integers() | st.floats(allow_nan=False) | st.booleans(), st.none()]
_json_documents = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.one_of([st.dictionaries(keys, children, max_size=4) for keys in _json_keys])
    | st.lists(st.lists(_json_scalars, min_size=1, max_size=3) | st.tuples(_json_scalars), max_size=4),
    max_leaves=16,
)


class TestCanonicalJson:
    @given(value=_json_documents)
    @settings(max_examples=500, deadline=None)
    def test_writes_the_bytes_json_dumps_writes(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


class TestSerializeDensity:
    """``serialize_density`` writes the bytes the reference formula writes."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states_match_the_reference(self, m, eps, seed):
        space = RankingSpace(AlternativeSet(tuple("abcde")[:m]))
        rng = np.random.default_rng([m, seed])
        # Entries within a few ulp of eps, on both sides, at random places.
        edge = np.array([near(eps, u) for u in range(-3, 4)] + [0.0, 0.5 * eps, 2 * eps])
        # A few distinct values, each beside its neighbours one ulp away, and zeros of both signs.
        few = np.array([near(v, u) for v in rng.random(2) for u in (-1, 0, 1)])
        signed = np.concatenate([few, -few, [0.0, -0.0]])
        for _ in range(5):
            spots = rng.choice(space.dim, space.dim // 2, replace=False)
            diag = rng.random(space.dim) ** 4
            diag[spots] = rng.choice(edge, spots.size)
            amplitudes = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            amplitudes[spots] = rng.choice(edge, spots.size) * rng.choice([1, 1j, -1, -1j], spots.size)
            repeated = np.zeros(space.dim, dtype=complex)
            repeated.real, repeated.imag = rng.choice(signed, space.dim), rng.choice(signed, space.dim)
            states = (
                DensityOperator(space, diag),
                DensityOperator(space, diag, amplitudes),
                DensityOperator(space, rng.choice(few, space.dim)),
                DensityOperator(space, diag, repeated),
            )
            for state in states:
                written = serialize_density(state, eps)
                assert canonical_json(written) == canonical_json(reference_serialize_density(state, eps))

    @pytest.mark.parametrize("m, n", [(3, 1), (3, 3), (4, 2), (5, 2)])
    def test_profile_round_trip_keeps_qcv_bits(self, m, n):
        # Written and read back, a sampled profile scores the bits it scores when
        # written by the reference formula and read by the reference parse.
        space = RankingSpace(AlternativeSet(tuple("abcde")[:m]))
        params = QcvParams.for_alternatives(m)
        sampler = default_profile_sampler(space, n)
        rng = random.Random(100 * m + n)
        forms = set()
        for _ in range(40):
            profile = sampler(rng)
            forms.add(profile.factors is None)
            document = serialize_profile(profile)
            if profile.factors is not None:
                assert document["voters"] == [
                    reference_serialize_density(b, params.eps) for b in profile.factors
                ]
            rebuilt = parse_profile(json.dumps(document))
            reference = reference_parse_profile(space, document)
            assert qcv(rebuilt, params).diagonal.tobytes() == qcv(reference, params).diagonal.tobytes()
            assert np.allclose(qcv(rebuilt, params).diagonal, qcv(profile, params).diagonal, atol=1e-9)
            assert serialize_profile(rebuilt) == document
        assert forms == {False, True}


def reference_parse_profile(space, document):
    """A valid profile document read through ``reference_from_string``."""
    alternatives = space.alternatives
    if "voters" in document:
        ballots = []
        for spec in document["voters"]:
            ((shape, entries),) = spec.items()
            build, value = (pure_state, complex) if shape == "pure" else (mixed_state, float)
            ballots.append(build(space, [
                (value(*entry[:-1]), reference_from_string(alternatives, entry[-1])) for entry in entries
            ]))
        return ProfileState.product_of(ballots)
    total = sum(weight for weight, _ in document["correlated"])
    return ProfileState.correlated(space, [
        (weight / total, tuple(reference_from_string(alternatives, r) for r in key))
        for weight, key in document["correlated"]
    ])


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-5, 5)
    | st.text("abc>", max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["alternatives", "voters", "correlated", "pure", "mixed", "other"]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


class TestLabelsRoundTrip:
    @given(labels=st.lists(st.text("ab> ", max_size=3), min_size=2, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_label_set_round_trips(self, labels):
        # A ranking string splits on '>' and strips each part, so a label
        # holding either could be written but not read back.
        try:
            alternatives = AlternativeSet(tuple(labels))
        except InvalidArgument:
            return
        rankings = all_rankings(alternatives)
        profile = ProfileState.basis([rankings[0], rankings[-1]])
        document = serialize_profile(profile)
        rebuilt = parse_profile(json.dumps(document))
        assert rebuilt.space.alternatives == alternatives
        assert serialize_profile(rebuilt) == document

    @pytest.mark.parametrize("labels", [[" a", "b", "c"], ["a>x", "b", "c"], ["a", "b", "c "]])
    def test_evaluate_refuses_them_at_the_alternatives(self, labels, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({
            "alternatives": labels, "voters": [{"mixed": [[1, ">".join(labels)]]}] * 2,
        }))
        assert main(["evaluate", "--rule", "qcv", "--profile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["locus"] == "alternatives" and "'>'" in error["message"]


class TestParserIsTotal:
    @given(doc=json_values)
    @settings(max_examples=200, deadline=None)
    def test_any_document_parses_or_raises_parse_error(self, doc):
        # The CLI's single-line error contract relies on nothing leaking
        # past ParseError, no matter how mangled the document is.
        try:
            parse_profile(doc if isinstance(doc, dict) else json.dumps(doc))
        except ParseError:
            pass


class TestFamilySpec:
    def test_default_tokens(self):
        family = parse_family("basis,sup2,sup3,grid")
        assert family.basis and family.pair_superpositions and family.triple_superpositions
        assert family.mixture_grid_step == 0.25
        assert family.random_pure == 0

    def test_custom_tokens(self):
        family = parse_family("basis,grid:0.5,random:8,seed:3")
        assert family.mixture_grid_step == 0.5
        assert family.random_pure == 8
        assert family.random_seed == 3

    def test_unknown_token_rejected(self):
        with pytest.raises(ParseError):
            parse_family("basis,warp")

    @pytest.mark.parametrize("token", ["basis:7", "sup2:x", "sup3:"])
    def test_switches_take_no_argument(self, token):
        with pytest.raises(ParseError) as got:
            parse_family(f"grid,{token}")
        name = token.partition(":")[0]
        assert str(got.value) == f"bad family token {token!r}: {name} takes no argument"
        assert got.value.locus == "family"


class TestCliEvaluate:
    def write(self, tmp_path, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        return str(path)

    CYCLE = {"alternatives": ["a", "b", "c"], "voters": [{"mixed": [[1, r]]} for r in ("a>b>c", "b>c>a", "c>a>b")]}
    SUPERPOSITION = {
        "alternatives": ["x", "y", "z"],
        "voters": [{"pure": [[0.6, 0, "x>y>z"], [0, 0.8, "y>x>z"]]}, {"pure": [[1, 0, "z>x>y"]]}],
    }
    A_FIRST = {"alternatives": ["a", "b", "c"], "voters": [{"mixed": [[1, "a>b>c"]]}, {"mixed": [[1, "a>c>b"]]}]}
    STAGES_LINE = (
        '  stages: {"extensions": ["a>b>c", "a>c>b"], "pairs_all": [["a", "b"], ["a", "c"]], '
        '"pairs_any": [["a", "b"], ["a", "c"], ["b", "c"], ["c", "b"]], "scores": {"a": 2, "b": 1, "c": 1}, '
        '"sigma1": {"mixed": [[0.5, "a>b>c"], [0.5, "a>c>b"]]}, '
        '"sigma2": {"mixed": [[0.45, "a>b>c"], [0.45, "a>c>b"], [0.0333333333333, "b>a>c"], '
        '[0.0166666666667, "b>c>a"], [0.0333333333333, "c>a>b"], [0.0166666666667, "c>b>a"]]}, '
        '"sigma3": {"mixed": [[0.5, "a>b>c"], [0.5, "a>c>b"]]}, "weak_order": [["a"], ["b", "c"]]}'
    )

    @pytest.mark.parametrize(
        "flags, doc, lines",
        [
            (["--rule", "qcv"], CYCLE, [
                "rule: qcv",
                "  society (mixed):",
                *(f"    [0.166666666667, '{r}']" for r in ("a>b>c", "a>c>b", "b>a>c", "b>c>a", "c>a>b", "c>b>a")),
            ]),
            (["--rule", "dictator:1"], SUPERPOSITION, [
                "rule: dictator:1", "  society (pure):", "    [0.6, 0.0, 'x>y>z']", "    [0.0, 0.8, 'y>x>z']",
            ]),
            (["--rule", "qcvne"], CYCLE, ["rule: qcvne", *(f"  {a}: 0.333333333333" for a in "abc")]),
            (["--rule", "qcv", "--stages"], A_FIRST, [
                "rule: qcv", "  society (mixed):", "    [0.5, 'a>b>c']", "    [0.5, 'a>c>b']", STAGES_LINE,
            ]),
        ],
        ids=["mixed-society", "pure-society", "distribution", "stages"],
    )
    def test_text_format_lines(self, tmp_path, capsys, flags, doc, lines):
        code = main(["evaluate", *flags, "--profile", self.write(tmp_path, doc), "--format", "text"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_split_top_dictator(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "dictator:1", "--profile", path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "dictator:1"
        assert set(payload["society"]) == {"pure"}

    def test_qcvne_unanimous(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[1, "a>b>c"]]}] * 3,
        }
        code = main(["evaluate", "--rule", "qcvne", "--delta", "0.05", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distribution"] == {"a": 1.0, "b": 0.0, "c": 0.0}

    def test_qcv_cycle_twelve_digits(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [
                {"mixed": [[1, "a>b>c"]]},
                {"mixed": [[1, "b>c>a"]]},
                {"mixed": [[1, "c>a>b"]]},
            ],
        }
        code = main(["evaluate", "--rule", "qcv", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        weights = [w for w, _ in payload["society"]["mixed"]]
        assert weights == [pytest.approx(0.166666666667)] * 6

    def test_stages_on_single_tuple_profile(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[1, "a>b>c"]]}, {"mixed": [[1, "a>c>b"]]}],
        }
        code = main(["evaluate", "--rule", "qcv", "--stages", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        stages = payload["stages"]
        assert stages["scores"] == {"a": 2, "b": 1, "c": 1}
        assert stages["weak_order"] == [["a"], ["b", "c"]]
        assert stages["extensions"] == ["a>b>c", "a>c>b"]
        assert stages["pairs_all"] == [["a", "b"], ["a", "c"]]

    def test_stages_rejects_mixed_support(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[0.5, "a>b>c"], [0.5, "b>a>c"]]}, {"mixed": [[1, "a>c>b"]]}],
        }
        code = main(["evaluate", "--rule", "qcv", "--stages", "--profile", self.write(tmp_path, doc)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid-argument"

    def test_stages_rejects_non_condorcet_rules(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "dictator:1", "--stages", "--profile", path])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["locus"] == "rule"

    def test_stages_refuses_the_rule_before_reading_the_profile(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = main(["evaluate", "--rule", "dictator:1", "--stages", "--profile", missing])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["locus"]) == ("parse-error", "rule")

    def test_stages_refuses_mixed_support_before_the_rule_runs(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rule ran")

        monkeypatch.setattr(welfare, "_scored", refuse)
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[0.5, "a>b>c"], [0.5, "b>a>c"]]}, {"mixed": [[1, "a>c>b"]]}],
        }
        for rule in ("qcv", "qcvne"):
            code = main(["evaluate", "--rule", rule, "--stages", "--profile", self.write(tmp_path, doc)])
            assert code == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "invalid-argument" and "single ranking tuple" in err["message"]

    def test_correlated_support_is_capped_by_distinct_tallies_only(self, tmp_path, capsys):
        # 20,001 distinct joint keys of 8 voters fold to at most 9^3 tallies at
        # m=3, so qcv scores them; --stages still reads the merged support,
        # whose cap counts ranking combinations.
        strings = [r.to_string() for r in all_rankings(AlternativeSet(("a", "b", "c")))]
        keys = [[strings[(t // 6**v) % 6] for v in range(8)] for t in range(20_001)]
        path = self.write(tmp_path, {"alternatives": ["a", "b", "c"], "correlated": [[1, key] for key in keys]})
        assert main(["evaluate", "--rule", "qcv", "--profile", path]) == 0
        assert "mixed" in json.loads(capsys.readouterr().out)["society"]
        assert main(["evaluate", "--rule", "qcv", "--stages", "--profile", path]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["message"]) == (
            "resource-limit", "profile support exceeds 20000 ranking combinations"
        )

    def test_scaled_ballots_give_the_unit_scale_report(self, tmp_path, capsys):
        # Only a ballot's weight ratios carry meaning. Powers of two scale
        # exactly, so the normalized weights, and the report, keep their bits.
        def document(scale):
            return {
                "alternatives": ["a", "b", "c"],
                "voters": [
                    {"mixed": [[0.25 * scale, "a>b>c"], [0.75 * scale, "b>c>a"]]},
                    {"pure": [[0.6 * scale, 0, "c>a>b"], [0, 0.8 * scale, "b>a>c"]]},
                    {"mixed": [[scale, "c>b>a"]]},
                ],
            }

        out = tmp_path / "report.json"

        def report(rule, scale):
            path = self.write(tmp_path, document(scale))
            assert main(["evaluate", "--rule", rule, "--profile", path, "--out", str(out)]) == 0, scale
            return out.read_bytes()

        for rule in ("qcv", "qcvne"):
            unit = report(rule, 1.0)
            for k in range(-200, 201):
                assert report(rule, 2.0**k) == unit, k
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "ballot, outcome",
        [
            ({"mixed": [[0, "a>b>c"], [0, "b>a>c"]]}, "mixture needs positive total weight"),
            ({"pure": [[0, 0, "a>b>c"], [0, 0, "b>a>c"]]}, "pure state needs at least one nonzero amplitude"),
            ({"pure": [[0.5, 0, "a>b>c"], [-0.5, 0, "a>b>c"]]}, "pure state needs at least one nonzero amplitude"),
            # The total overflows, and the squares underflow, unless the terms are scaled first.
            ({"mixed": [[1e308, "a>b>c"], [1e308, "b>a>c"]]}, {"mixed": [[1, "a>b>c"], [1, "b>a>c"]]}),
            (
                {"mixed": [[1, "a>b>c"], [-1e-300, "b>a>c"]]},
                "mixture weights must be finite and nonnegative, got -1e-300",
            ),
            ({"pure": [[1e-160, 0, "a>b>c"], [0, 1e-160, "b>a>c"]]}, {"pure": [[1, 0, "a>b>c"], [0, 1, "b>a>c"]]}),
        ],
        ids=["zero-total", "zero-norm", "cancelling", "infinite-total", "negative", "underflowing"],
    )
    def test_unscalable_ballots_exit_2(self, tmp_path, capsys, ballot, outcome):
        # A ballot with no finite positive scale exits 2 with the message given; any other
        # normalizes, and gives the report of the unit-scale twin given.
        def evaluate(voter):
            doc = {"alternatives": ["a", "b", "c"], "voters": [{"mixed": [[1, "a>b>c"]]}, voter]}
            code = main(["evaluate", "--rule", "qcv", "--profile", self.write(tmp_path, doc)])
            return code, capsys.readouterr()

        code, captured = evaluate(ballot)
        if isinstance(outcome, dict):
            assert (code, captured.err) == (0, "")
            assert captured.out == evaluate(outcome)[1].out
            return
        assert code == 2
        err = json.loads(captured.err)
        assert err["error"] == "parse-error" and err["message"].startswith(outcome)
        assert err["locus"] == "voters[1]." + next(iter(ballot))

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "approval", "--profile", path])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse-error"

    def test_missing_file_exits_2(self, capsys):
        code = main(["evaluate", "--rule", "qcv", "--profile", "/nonexistent.json"])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_delta_bound_checked(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "qcv", "--delta", "0.2", "--profile", path])
        assert code == 2


class TestCliCheck:
    def test_dictator_dictatorship_expected(self, capsys):
        code = main(
            [
                "check", "--axiom", "dictatorship", "--rule", "dictator:1",
                "--trials", "40", "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "dictatorship-candidate"

    def test_veto_qic_falsified_is_expected(self, capsys):
        code = main(
            [
                "check", "--axiom", "qic", "--rule", "veto:a>b>c",
                "--trials", "60", "--seed", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "falsified"
        assert payload["witnesses"]

    def test_qcv_unanimity_exit_zero(self, capsys):
        code = main(
            ["check", "--axiom", "unanimity", "--rule", "qcv", "--trials", "60", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "holds-on-sample"

    def test_iia_rejects_choice_rule(self, capsys):
        code = main(["check", "--axiom", "iia", "--rule", "qcvne", "--trials", "10"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "error": "invalid-argument",
            "message": "expected a welfare rule, got the choice rule 'qcvne'",
        }

    def test_onto_composes_welfare_rule(self, capsys):
        code = main(["check", "--axiom", "onto", "--rule", "qcv"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "natural-extension(qcv)"
        assert payload["verdict"] == "holds-on-sample"

    def test_byte_identical_reports(self, capsys):
        args = ["check", "--axiom", "qic", "--rule", "qcv", "--trials", "25", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "flags, labels, voters",
        [([], ["a", "b", "c"], 3), (["--voters", "5"], ["a", "b", "c"], 5),
         (["--alternatives", "4", "--voters", "4"], ["a", "b", "c", "d"], 4)],
    )
    @pytest.mark.parametrize("command", [["check", "--axiom", "qic"], ["suite", "gs"]])
    def test_reports_name_alternatives_and_voters(self, command, flags, labels, voters, capsys):
        assert main([*command, "--rule", "qcvne", "--trials", "2", "--seed", "1", *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["alternatives"], payload["voters"]) == (labels, voters)

    def test_out_file_and_text_format(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check", "--axiom", "onto", "--rule", "qcvne",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["axiom"] == "onto"
        code = main(["check", "--axiom", "onto", "--rule", "qcvne", "--format", "text"])
        assert code == 0
        assert "verdict: holds-on-sample" in capsys.readouterr().out

    def test_suite_text_format_lines(self, capsys):
        assert main(["suite", "gs", "--trials", "3", "--seed", "0", "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "suite: gs-suite rule: natural-extension(qcv) verdict: bypass-demonstrated",
            "  qic: holds-on-sample",
            "  onto: holds-on-sample",
            "  non-dictatorship: falsified-dictatorship",
        ]

    def test_suite_command_small_arrow(self, capsys):
        code = main(["suite", "arrow", "--rule", "qcv", "--trials", "25", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "arrow-suite"
        assert [c["name"] for c in payload["components"]] == [
            "unanimity-sharp",
            "unanimity-unsharp",
            "iia-sharp",
            "iia-unsharp",
            "non-dictatorship",
        ]

    def test_timing_flag_adds_elapsed(self, capsys):
        code = main(
            ["check", "--axiom", "onto", "--rule", "qcvne", "--timing"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "elapsed_ms" in payload

    def test_check_arrow_suite_bypass(self, capsys):
        code = main(
            [
                "check", "--axiom", "arrow-suite", "--rule", "qcv",
                "--trials", "40", "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "bypass-demonstrated"

    def test_suite_command_small_gs(self, capsys):
        code = main(
            [
                "suite", "gs", "--rule", "qcvne", "--trials", "30", "--seed", "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "gs-suite"
        assert payload["verdict"] == "bypass-demonstrated"

    def test_usage_error_exits_2(self, capsys):
        assert main(["check", "--axiom", "warp"]) == 2


class TestParserReuse:
    """``main`` keeps no state between calls: no call's output depends on the calls before it."""

    def calls(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[1, "a>b>c"]]}, {"mixed": [[1, "b>c>a"]]}],
        }))
        evaluate = ["evaluate", "--rule", "qcv", "--profile", str(profile)]
        onto = ["check", "--axiom", "onto", "--rule", "qcvne"]
        return [
            [*evaluate, "--stages"],
            evaluate,
            [*onto, "--timing"],
            onto,
            ["check", "--axiom", "warp"],
            [*onto, "--format", "text", "--out", str(tmp_path / "report.txt")],
            ["evaluate", "--rule", "qcv", "--profile", str(profile), "--stages", "--delta", "1"],
            ["check", "--axiom", "unanimity", "--rule", "dictator:1", "--trials", "3"],
            ["suite", "gs", "--rule", "qcvne", "--trials", "3", "--out", str(tmp_path / "report.txt")],
            ["check", "--axiom", "qic", "--rule", "qcv", "--trials", "3", "--seed", "4"],
        ]

    def run(self, argv, tmp_path):
        report = tmp_path / "report.txt"
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        if "--timing" in argv:
            payload = json.loads(text)
            assert payload.pop("elapsed_ms") >= 0.0
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return code, text, err.getvalue(), report.read_text() if report.exists() else None

    def test_calls_in_sequence_match_calls_in_reverse(self, tmp_path):
        calls = self.calls(tmp_path)
        reused = [self.run(argv, tmp_path) for argv in calls]
        reverse = [self.run(argv, tmp_path) for argv in reversed(calls)]
        assert reused == reverse[::-1]
        codes = [code for code, _, _, _ in reused]
        assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
        for code, out, err, _ in reused:
            if code == 2:
                assert out == ""
                assert "error" in json.loads(err)
                assert len(err.splitlines()) == 1
        assert "stages" in json.loads(reused[0][1]) and "stages" not in json.loads(reused[1][1])
        assert "elapsed_ms" not in reused[3][1]
        assert reused[5][1] == "" and reused[5][3].startswith("axiom: onto")
        assert reused[8][1] == "" and json.loads(reused[8][3])["suite"] == "gs-suite"
        assert reused[9][3] is None and json.loads(reused[9][1])["axiom"] == "qic"


CHECK_QIC = ["check", "--axiom", "qic", "--trials", "2"]

# Each case: argv, and what it gives. ("args", {...}) names attributes of the
# namespace read; ("usage", message) and ("invalid-argument", message) the one
# error line; ("help", command) the help, which names every flag of the command.
READER_CASES = {
    "flag-space-value": (["check", "--axiom", "qic", "--trials", "7"], ("args", {"axiom": "qic", "trials": 7})),
    "flag-equals-value": (["check", "--axiom=qic", "--trials=7"], ("args", {"axiom": "qic", "trials": 7})),
    "equals-value-with-equals": (["evaluate", "--profile=a=b.json"], ("args", {"profile": "a=b.json"})),
    "last-repeat-wins": ([*CHECK_QIC, "--trials", "7", "--rule", "qcv", "--rule=qcvne"],
                         ("args", {"trials": 7, "rule": "qcvne"})),
    "defaults": (["suite", "gs"], ("args", {"rule": "qcv", "alternatives": 3, "voters": 3, "trials": 200,
                                            "seed": 0, "delta": None, "eps": 1e-9, "timing": False,
                                            "family": "basis,sup2,sup3,grid", "out": None,
                                            "format": "json", "suite": "gs"})),
    "unique-prefix": (["evaluate", "--prof", "p.json", "--st"], ("args", {"profile": "p.json", "stages": True})),
    "exact-name-before-prefix": (["check", "--axiom", "qic", "--alternatives", "4"],
                                 ("args", {"alternatives": 4})),
    "ambiguous-prefix": (["check", "--a", "qic"],
                         ("usage", "ambiguous option: --a could match --axiom, --alternatives")),
    "negative-int": ([*CHECK_QIC, "--seed", "-5"], ("args", {"seed": -5})),
    "negative-float": ([*CHECK_QIC, "--delta", "-1e-3"], ("args", {"delta": -1e-3})),
    "negative-inf": ([*CHECK_QIC, "--delta", "-inf"], ("args", {"delta": -float("inf")})),
    "stdin-profile": (["evaluate", "--profile", "-"], ("args", {"profile": "-"})),
    "single-dash-value": (["evaluate", "--profile", "-h"], ("args", {"profile": "-h"})),
    "negative-float-reaches-check": ([*CHECK_QIC, "--delta", "-1e-3"],
                                     ("invalid-argument", "delta must lie in (0, 1), got -0.001")),
    "negative-inf-reaches-check": ([*CHECK_QIC, "--delta", "-inf"],
                                   ("invalid-argument", "delta must lie in (0, 1), got -inf")),
    "negative-trials-reach-check": (["check", "--axiom", "qic", "--trials", "-3"],
                                    ("invalid-argument", "--trials must be at least 1, got -3")),
    "double-dash-is-never-a-value": (["evaluate", "--profile", "--stages"],
                                     ("usage", "argument --profile: expected one argument")),
    "suite-name-first": (["suite", "gs", "--trials", "2"], ("args", {"suite": "gs", "trials": 2})),
    "suite-name-between": (["suite", "--trials", "2", "arrow", "--seed", "1"],
                           ("args", {"suite": "arrow", "trials": 2, "seed": 1})),
    "suite-name-last": (["suite", "--trials", "2", "gs"], ("args", {"suite": "gs"})),
    "help-top": (["--help"], ("help", None)),
    "help-top-short": (["-h"], ("help", None)),
    "help-evaluate": (["evaluate", "--help"], ("help", "evaluate")),
    "help-check": (["check", "--axiom", "qic", "-h"], ("help", "check")),
    "help-suite": (["suite", "--help"], ("help", "suite")),
    "help-prefix": (["suite", "--he"], ("help", "suite")),
    "no-command": ([], ("usage", "the following arguments are required: command")),
    "unknown-command": (["frob"], ("usage", "argument command: invalid choice: 'frob' "
                                            "(choose from 'evaluate', 'check', 'suite')")),
    "unknown-flag": ([*CHECK_QIC, "--warp"], ("usage", "unrecognized arguments: --warp")),
    "unknown-flag-with-value": ([*CHECK_QIC, "--warp=1"], ("usage", "unrecognized arguments: --warp=1")),
    "missing-value-at-end": ([*CHECK_QIC, "--seed"], ("usage", "argument --seed: expected one argument")),
    "missing-value-before-flag": ([*CHECK_QIC, "--seed", "--timing"],
                                  ("usage", "argument --seed: expected one argument")),
    "bad-int": ([*CHECK_QIC, "--voters", "three"], ("usage", "argument --voters: invalid int value: 'three'")),
    "bad-float": ([*CHECK_QIC, "--eps", "small"], ("usage", "argument --eps: invalid float value: 'small'")),
    "bad-choice": ([*CHECK_QIC, "--format", "yaml"],
                   ("usage", "argument --format: invalid choice: 'yaml' (choose from 'json', 'text')")),
    "bad-axiom": (["check", "--axiom", "warp"], ("usage", "argument --axiom: invalid choice: 'warp' (choose from "
                  "'qic', 'dictatorship', 'onto', 'unanimity', 'iia', 'arrow-suite', 'gs-suite')")),
    "bad-suite": (["suite", "warp"],
                  ("usage", "argument suite: invalid choice: 'warp' (choose from 'arrow', 'gs')")),
    "missing-profile": (["evaluate", "--rule", "qcv"],
                        ("usage", "the following arguments are required: --profile")),
    "missing-axiom": (["check", "--trials", "2"], ("usage", "the following arguments are required: --axiom")),
    "missing-suite": (["suite", "--trials", "2"], ("usage", "the following arguments are required: suite")),
    "stray-token": ([*CHECK_QIC, "extra"], ("usage", "unrecognized arguments: extra")),
    "second-suite-name": (["suite", "gs", "arrow"], ("usage", "unrecognized arguments: arrow")),
    "switch-with-value": (["evaluate", "--profile", "p.json", "--stages=x"],
                          ("usage", "argument --stages: ignored explicit argument 'x'")),
}


@pytest.mark.parametrize("case", list(READER_CASES))
def test_command_line_reader(case, capsys, monkeypatch):
    argv, (kind, expected) = READER_CASES[case]
    # No case may reach a draw: a usage fault is refused before the handler runs.
    monkeypatch.setattr(axioms, "_draws", refuse_to_build)
    if kind == "args":
        args = cli.read_args(argv)
        assert {name: getattr(args, name) for name in expected} == expected
        return
    code = main(argv)
    captured = capsys.readouterr()
    if kind == "help":
        assert (code, captured.err) == (0, "")
        names = cli.COMMANDS if expected is None else cli.COMMANDS[expected][1]
        assert all(name in captured.out for name in names)
        if expected == "check":
            assert "(default: 200)" in captured.out and "(required)" in captured.out
        return
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = {"error": kind, "message": expected}
    if kind == "usage":
        error = {"error": "parse-error", "locus": "usage", "message": expected}
    assert json.loads(lines[0]) == error


@pytest.mark.parametrize(
    "ballot, refused",
    [
        ({"mixed": [[1e308, "a>b>c"], [1e308, "b>a>c"]]}, False),  # the total would overflow
        ({"mixed": [[1e308, "a>b>c"], [1e308, "a>b>c"]]}, False),  # one ranking's weight would overflow
        ({"pure": [[1e155, 1e155, "a>b>c"], [1e155, 0, "b>a>c"]]}, False),  # the norm would overflow
        ({"mixed": [[10**400, "a>b>c"]]}, True),  # past the float range
    ],
    ids=["ballot0", "ballot1", "ballot2", "ballot3"],
)
def test_overflowing_ballot_gives_one_error_line(ballot, refused):
    # A fresh interpreter, since pytest collects numpy's warnings apart from stderr. A
    # finite ballot is scaled before any square or sum, so it evaluates with an empty
    # stderr; a refused one exits 2 with one JSON line there.
    doc = json.dumps({"alternatives": ["a", "b", "c"], "voters": [ballot]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "qsc.cli", "evaluate", "--profile", "-"],
        input=doc, env=env, capture_output=True, text=True, timeout=60,
    )
    if not refused:
        assert (done.returncode, done.stderr) == (0, "")
        assert "society" in json.loads(done.stdout)
        return
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["message"] == "expected a finite number, got inf"


def test_import_builds_nothing(tmp_path):
    # Basis tables and family ballots are built on first use, neither the imports
    # nor an evaluate run load the axiom engine, and the command line is read
    # without argparse and the gettext and locale modules it loads.
    document = tmp_path / "profile.json"
    document.write_text(json.dumps(SPLIT_TOP_DOC), encoding="utf-8")
    probe = (
        "import contextlib, io, sys\n"
        "import qsc, qsc.cli\n"
        "print(qsc.rankings.basis_table.cache_info().currsize, 'qsc.axioms' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = qsc.cli.main(['evaluate', '--rule', 'qcvne', '--profile', {str(document)!r}])\n"
        "print(code, 'qsc.axioms' in sys.modules)\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        "import qsc.axioms\n"
        "print(qsc.axioms._family_ballots.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 False", "0 False", "[]", "0"]


def test_every_public_name_is_its_module_object():
    # The axiom engine's names resolve on first read, and the other names as imported.
    modules = [axioms, choice, errors, qsc.hilbert, rankings, serde, welfare]
    for name in qsc.__all__:
        value = getattr(qsc, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"qsc.{name}"]
            continue
        owners = [module for module in modules if name in vars(module)]
        assert owners and all(vars(module)[name] is value for module in owners), name
    probe = (
        "from qsc import *\n"
        "import qsc as _qsc\n"
        "print(sorted(k for k in dir() if not k.startswith('_')) == sorted(_qsc.__all__))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_two_m6_hunts_stay_under_150_mb():
    # The probe reads its own high-water mark, VmHWM. Its ru_maxrss would not
    # do: Linux starts a child's ru_maxrss at its parent's peak, so a pytest
    # process that once grew past the bound would fail the probe.
    probe = (
        "import contextlib, io\n"
        "from qsc.cli import main\n"
        "argv = ['check', '--axiom', 'qic', '--rule', 'qcv', '--alternatives', '6', '--trials', '10']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv + ['--seed', '1']), main(argv + ['--family', 'basis', '--seed', '2'])]\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
        "print(*codes, peak)\n"  # KiB
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    first, second, peak_kib = map(int, done.stdout.split())
    assert (first, second) == (0, 0)
    assert peak_kib < 150 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB"


def test_ci_command_line_steps_read_resolve_and_have_an_expected_verdict():
    # A check exits 1 on a wrong verdict only when EXPECTED_VERDICTS has its
    # (rule family, axiom), so each single-line `python -m qsc.cli` step of CI
    # must read, name a rule that resolves at its --alternatives, and have one.
    workflow = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            ".github", "workflows", "tests.yml")
    with open(workflow, encoding="utf-8") as handle:
        steps = [shlex.split(line.partition("python -m qsc.cli ")[2])
                 for line in handle if line.strip().startswith("run: ") and "python -m qsc.cli " in line]
    assert len(steps) >= 7, steps  # the workflow has seven
    for argv in steps:
        args = cli.read_args(argv)
        assert args is not None, argv
        alternatives = cli._default_labels(args.alternatives)
        cli._rule_and_params(args, alternatives)
        axiom = args.axiom if argv[0] == "check" else f"{args.suite}-suite"
        assert (cli._rule_family(args.rule), axiom) in EXPECTED_VERDICTS, argv


def refuse_to_build(*args):
    raise AssertionError("the family was built")


class TestCliInputErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "eps-nan", "eps-inf", "family-grid", "family-random", "family-grid-nan",
            "family-random-negative", "profile-dir", "profile-bytes",
            "eps-large", "family-empty", "family-seed-only", "family-over-cap", "family-grid-fine",
            "family-weights-over-cap", "trials-zero-dictatorship", "trials-zero-unanimity",
            "trials-zero-iia", "trials-zero-onto", "usage-bad-int", "usage-bad-choice",
            "voters-over-cap", "profile-too-deep", "eps-tiny", "profile-huge-int", "profile-long-int",
            "family-basis-arg", "family-sup2-arg",
        ],
    )
    def test_exits_2_with_one_json_line(self, case, tmp_path, capsys, monkeypatch):
        # Every case is refused before a family is built; a cap that regressed
        # fails here instead of building the m=5 family or a 1e-9 grid.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        if case == "voters-over-cap":
            # Refused before the sampler, or the onto check, sizes 10^8 voters.
            monkeypatch.setattr(axioms, "default_profile_sampler", refuse_to_build)
        check = ["check", "--axiom", "qic", "--rule", "qcv", "--trials", "2"]
        # qcv is searched at the basis ballots and never reads --family, so the
        # caps are exercised on veto, which scans the family.
        veto = ["check", "--axiom", "qic", "--trials", "2", "--rule"]
        undecodable = tmp_path / "profile.json"
        undecodable.write_bytes(b"\xff\xfe")
        too_deep = tmp_path / "deep.json"
        too_deep.write_text('{"alternatives": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
        # A 400-digit weight overflows float(); a 5,001-digit one passes int()'s digit limit.
        huge_int, long_int = tmp_path / "huge.json", tmp_path / "long.json"
        for path, digits in ((huge_int, 400), (long_int, 5001)):
            path.write_text('{"alternatives":["a","b","c"],"voters":[{"mixed":[[1' + "0" * (digits - 1)
                            + ',"a>b>c"]]}]}', encoding="utf-8")
        argv = {
            "eps-nan": [*check, "--eps", "nan"],
            "eps-inf": [*check, "--eps", "inf"],
            "family-grid": [*check, "--family", "grid:abc"],
            "family-random": [*check, "--family", "random:x"],
            "family-grid-nan": [*check, "--family", "grid:nan"],
            "family-random-negative": [*check, "--family", "random:-5"],
            "profile-dir": ["evaluate", "--rule", "qcv", "--profile", str(tmp_path)],
            "profile-bytes": ["evaluate", "--rule", "qcv", "--profile", str(undecodable)],
            "eps-large": [*check, "--eps", "0.6"],
            "eps-tiny": [*check, "--eps", "1e-20"],
            "family-empty": [*check, "--family", ""],
            "family-seed-only": [*check, "--family", "seed:3"],
            "family-basis-arg": [*veto, "veto:a>b>c", "--family", "basis:7"],
            "family-sup2-arg": [*veto, "veto:a>b>c", "--family", "sup2:x"],
            "family-over-cap": [*veto, "veto:a>b>c>d>e", "--alternatives", "5"],
            "family-grid-fine": [*veto, "veto:a>b>c", "--family", "grid:1e-9"],
            "family-weights-over-cap": [
                *veto, "veto:a>b>c>d>e>f", "--alternatives", "6", "--family", "basis,random:99000",
            ],
            "trials-zero-dictatorship": ["check", "--axiom", "dictatorship", "--trials", "0"],
            "trials-zero-unanimity": ["check", "--axiom", "unanimity", "--trials", "0"],
            "trials-zero-iia": ["check", "--axiom", "iia", "--trials", "0"],
            "trials-zero-onto": ["check", "--axiom", "onto", "--trials", "0"],
            "usage-bad-int": [*check, "--trials", "abc"],
            "usage-bad-choice": ["check", "--axiom", "warp"],
            "voters-over-cap": ["check", "--axiom", "onto", "--voters", "100000000"],
            "profile-too-deep": ["evaluate", "--rule", "qcv", "--profile", str(too_deep)],
            "profile-huge-int": ["evaluate", "--rule", "qcv", "--profile", str(huge_int)],
            "profile-long-int": ["evaluate", "--rule", "qcv", "--profile", str(long_int)],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert "error" in json.loads(lines[0])

    @pytest.mark.parametrize(
        "rule, error",
        [
            *(
                (rule, {"error": "parse-error", "locus": "rule",
                        "message": f"dictator rule needs a voter index, got {rule!r}"})
                for rule in (
                    "dictator:x", "dictator: 1", "dictator:+1", "dictator:1_0", "dictator:\u0663", "dictator:" + "1" * 5000
                )
            ),
            ("dictator:-1", {"error": "invalid-argument", "message": "voter index must be positive, got -1"}),
        ],
        ids=["letter", "space", "plus", "underscore", "arabic-indic-digit", "past-the-digit-limit", "negative"],
    )
    def test_a_dictator_index_is_an_optional_minus_and_ascii_digits(self, rule, error, capsys, monkeypatch):
        monkeypatch.setattr(axioms, "_draws", refuse_to_build)
        assert main(["check", "--axiom", "unanimity", "--rule", rule, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [error]

    @pytest.mark.parametrize("rule", ["qcv", "qcvne", "dictator:1", "veto:a>b>c"])
    def test_eps_below_the_floor_is_refused_before_any_draw(self, rule, capsys, monkeypatch):
        # Every rule, the hookless veto too: at eps 1e-20 the hooked ones would
        # otherwise fail a distribution check on a sum's rounding.
        def refuse(*args):
            raise AssertionError("a profile was drawn")

        monkeypatch.setattr(axioms, "_draws", refuse)
        argv = ["check", "--axiom", "qic", "--trials", "50", "--seed", "1", "--eps", "1e-20", "--rule", rule]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {
            "error": "invalid-argument", "message": "eps must lie in [1e-12, 0.001], got 1e-20",
        }

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["check", "suite", "evaluate"])
    def test_unusable_out_is_refused_before_any_work(self, command, target, tmp_path, capsys, monkeypatch):
        # Refused before a draw is made or the profile is read: the profile path does not exist.
        monkeypatch.setattr(axioms, "_draws", refuse_to_build)
        out = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
        argv = {
            "check": ["check", "--axiom", "qic", "--trials", "500"],
            "suite": ["suite", "gs", "--rule", "qcvne", "--trials", "500"],
            "evaluate": ["evaluate", "--profile", str(tmp_path / "absent.json")],
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "invalid-argument" and error["message"].startswith(f"--out {str(out)!r}")
        assert not out.exists() if target == "missing-directory" else out.is_dir()

    @pytest.mark.parametrize("error", [InvalidArgument, ZeroMassProjection])
    def test_kernel_error_in_the_batched_search(self, error, capsys, monkeypatch):
        # The kernel fails only once the hook is asked for voters' basis responses,
        # that is, once the search of the scanned voters starts.
        hooked = []
        scored = welfare._scored

        def failing_kernel(*args):
            raise error("the kernel refused")

        def failing_scored(params, requests):
            requests = list(requests)
            if any(voter is not None for _, voter in requests):
                hooked.append(requests)
                monkeypatch.setattr(welfare, "_qcv_rows", failing_kernel)
            return scored(params, requests)

        monkeypatch.setattr(welfare, "_scored", failing_scored)
        assert main(["check", "--axiom", "qic", "--rule", "qcv", "--trials", "20", "--seed", "1"]) == 2
        assert hooked
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and "Traceback" not in captured.err
        assert json.loads(lines[0])["message"] == "the kernel refused"

    @pytest.mark.parametrize("alternatives", ["-24", "-1", "0", "1"])
    @pytest.mark.parametrize("command", [["check", "--axiom", "qic", "--rule", "qcv"],
                                         ["suite", "gs", "--rule", "qcvne"]])
    def test_alternatives_below_two_are_refused(self, command, alternatives, tmp_path, capsys):
        # Labels are sliced from the alphabet: a negative count would slice from
        # its end and run at another m.
        out = tmp_path / "report.json"
        argv = [*command, "--alternatives", alternatives, "--trials", "3", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert "--alternatives" in json.loads(lines[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["check", "--axiom", "dictatorship", "--rule", "qcv"],
                                         ["check", "--axiom", "dictatorship", "--rule", "qcvne"],
                                         ["suite", "gs", "--rule", "qcvne"],
                                         ["suite", "arrow", "--rule", "qcv"]])
    def test_one_voter_is_refused_where_every_rule_is_a_dictatorship(self, command, capsys, monkeypatch):
        # The unanimity projection returns a lone voter's ballot, so one voter
        # dictates under every rule: these checks refuse it before any draw.
        monkeypatch.setattr(axioms, "default_profile_sampler", refuse_to_build)
        assert main([*command, "--voters", "1", "--trials", "3"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and "Traceback" not in captured.err
        error = json.loads(lines[0])
        assert error["error"] == "invalid-argument" and "--voters" in error["message"]

    def test_support_cap_on_distinct_tallies_exits_2(self, capsys, monkeypatch):
        # Some draw of seed 1 folds its twelve voters to more than 8 distinct tallies.
        monkeypatch.setattr(qsc.hilbert, "DEFAULT_SUPPORT_CAP", 8)
        assert main(["check", "--axiom", "qic", "--rule", "qcv", "--voters", "12", "--trials", "20",
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and "Traceback" not in captured.err
        error = json.loads(lines[0])
        assert error == {"error": "resource-limit", "message": "profile support exceeds 8 distinct tallies"}

    def test_large_eps_is_named(self, capsys):
        assert main(["check", "--axiom", "qic", "--trials", "2", "--eps", "0.6"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid-argument" and "eps" in error["message"]

    def test_family_weight_cap_refuses_before_building(self, capsys, monkeypatch):
        # 99,720 ballots pass the ballot cap, but at m=6 they would hold about
        # 72M basis weights (1.7 GB of pure ballots plus the weight matrix).
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        argv = ["check", "--axiom", "qic", "--rule", "veto:a>b>c>d>e>f", "--trials", "2",
                "--alternatives", "6", "--family", "basis,random:99000"]
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 5.0
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "resource-limit" and "basis weights" in error["message"]

    def test_caps_refuse_before_any_voter_is_scanned(self, capsys, monkeypatch):
        # Seed 0 draws a profile on which no veto voter's clause fires, so the
        # search never asks for the family; the m=5 default is still refused.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        argv = ["check", "--axiom", "qic", "--rule", "veto:a>b>c>d>e", "--alternatives", "5",
                "--trials", "1", "--seed", "0"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "resource-limit" and "309520 ballots" in error["message"]
        # With the up-front check lifted, the same run finishes without building
        # the family: no witness, so veto's expected "falsified" is missed.
        monkeypatch.setattr(axioms.CandidateBallotFamily, "check_size", lambda self, space: None)
        assert main(argv) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--axiom", "qic", "--rule", "qcv", "--alternatives", "5"],
            ["check", "--axiom", "qic", "--rule", "qcv", "--alternatives", "6",
             "--trials", "10", "--seed", "1"],
            ["check", "--axiom", "gs-suite", "--rule", "qcvne", "--alternatives", "6",
             "--trials", "3"],
        ],
        ids=["qic-m5", "qic-m6", "gs-suite-m6"],
    )
    def test_hooked_rules_never_read_the_family(self, argv, capsys, monkeypatch):
        # The default family is over the caps at m=5 and m=6, and never built.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        qic = payload["reports"][0] if "reports" in payload else payload
        assert qic["details"]["search"] == "vertices"
        assert qic["verdict"] == "holds-on-sample"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alternatives", "4", "--trials", "2"],
            ["--alternatives", "5", "--trials", "2", "--family", "basis,sup2"],
        ],
    )
    def test_families_under_the_caps_still_run(self, flags, capsys):
        assert main(["check", "--axiom", "qic", "--rule", "qcv", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "holds-on-sample"

    @pytest.mark.parametrize(
        "rule, alternatives",
        [("veto:a>b>c", "4"), ("veto:a>b>x", "3"), ("veto:a>b>b", "3"), ("veto:", "3")],
    )
    def test_veto_ranking_error_names_rule_and_alternatives(self, rule, alternatives, capsys):
        argv = ["check", "--axiom", "qic", "--rule", rule, "--alternatives", alternatives,
                "--trials", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "parse-error" and error["locus"] == "rule"
        names = ", ".join("abcd"[: int(alternatives)])
        assert repr(rule) in error["message"] and names in error["message"]
        assert "permutation" not in error["message"]


FUZZ_DOCUMENTS = [
    SPLIT_TOP_DOC,
    {"alternatives": ["a", "b", "c", "d"], "voters": [{"mixed": [[1, "a>b>c>d"], [2, "d>c>b>a"]]}]},
    {"alternatives": ["a", "b"], "correlated": [[0.5, ["a>b", "b>a"]], [0.5, ["b>a", "b>a"]]]},
    {"alternatives": ["x", "y", "z"], "voters": [{"pure": [[0, 0, "x>y>z"]]}]},
    {"alternatives": ["x"], "voters": []},
]


def _flag(name, values):
    """Either nothing or ``[name, value]`` for one of the values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


# Valid settings for each flag; the last occurrence of a flag wins, so one bad
# value appended at the end overrides a good one.
_check_flags = st.tuples(
    st.sampled_from(["qcv", "qcvne", "dictator:1", "dictator:2", "veto:a>b>c"])
    .map(lambda r: ["--rule", r]),
    _flag("--alternatives", ["2", "3", "4"]),
    _flag("--voters", ["1", "2", "3"]),
    st.sampled_from(["1", "2", "3"]).map(lambda t: ["--trials", t]),
    _flag("--seed", ["0", "7", "-3"]),
    _flag("--delta", ["0.01", "0.05"]),
    _flag("--eps", ["1e-9", "1e-3"]),
    _flag("--family", ["basis", "basis,sup2", "grid:0.5", "random:3,seed:2", "basis,sup2,sup3,grid"]),
    _flag("--format", ["json", "text"]),
    st.sampled_from([[], ["--timing"]]),
)
_bad_check_flag = st.sampled_from([
    ["--rule", "dictator:4"], ["--rule", "dictator:x"], ["--rule", "dictator: 1"], ["--rule", "dictator:+1"],
    ["--rule", "dictator:1_0"], ["--rule", "dictator:\u0663"], ["--rule", "veto:a>b"], ["--rule", "borda"],
    ["--alternatives", "1"], ["--alternatives", "0"], ["--alternatives", "27"],
    ["--alternatives", "three"], ["--voters", "0"], ["--voters", "-2"], ["--trials", "0"],
    ["--trials", "-1"], ["--trials", "1.5"], ["--seed", "x"], ["--delta", "0.2"], ["--delta", "0"],
    ["--delta", "-1"], ["--delta", "nan"], ["--eps", "0"], ["--eps", "-1e-9"], ["--eps", "0.5"],
    ["--eps", "nan"], ["--eps", "inf"], ["--family", ""], ["--family", "seed:1"],
    ["--family", "grid:-1"], ["--family", "warp"], ["--family", "basis:7"], ["--family", "sup2:x"],
    ["--format", "yaml"], ["--axiom", "warp"],
    ["--warp"],
])
_maybe_bad = st.one_of(st.just([]), _bad_check_flag)

_cli_argv = st.one_of(
    st.tuples(st.just(["check", "--axiom"]),
              st.sampled_from(["qic", "dictatorship", "onto", "unanimity", "iia", "arrow-suite",
                               "gs-suite"]).map(lambda a: [a]),
              _check_flags, _maybe_bad),
    st.tuples(st.just(["suite"]), st.sampled_from([["arrow"], ["gs"]]),
              _check_flags, _maybe_bad),
    st.tuples(
        st.just(["evaluate"]),
        st.sampled_from(["qcv", "qcvne", "dictator:1", "dictator:3", "veto:x>y>z", "borda"])
        .map(lambda r: ["--rule", r]),
        st.tuples(_flag("--delta", ["0.01", "0.2", "nan"]), _flag("--eps", ["1e-9", "0", "1"]),
                  st.sampled_from([[], ["--stages"]]), _flag("--format", ["json", "text"])),
        st.just([]),
    ),
)


class TestCliFuzz:
    @given(parts=_cli_argv, document=st.one_of(st.sampled_from(FUZZ_DOCUMENTS), json_values))
    @settings(max_examples=50, deadline=None)
    def test_exit_codes_and_error_lines(self, parts, document, tmp_path_factory):
        head, middle, flags, bad = parts
        argv = [*head, *middle, *(item for flag in flags for item in flag), *bad]
        if head == ["evaluate"]:
            path = tmp_path_factory.mktemp("fuzz") / "profile.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            argv += ["--profile", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        captured = SimpleNamespace(out=out.getvalue(), err=err.getvalue())
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err
        if code == 0:
            assert captured.err == ""
        elif code == 2:
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, (argv, captured.err)
            assert "error" in json.loads(lines[0])
        else:
            # Exit 1 only reports a known rule whose verdict differs from the expected one.
            assert captured.err == ""
            axiom = middle[0] if head[0] == "check" else f"{middle[0]}-suite"
            rule = argv[argv.index("--rule") + 1].partition(":")[0]
            expected = EXPECTED_VERDICTS[(rule, axiom)]
            if "--format" in argv and argv[argv.index("--format") + 1] == "text":
                verdict = captured.out.split("verdict: ")[1].split()[0]
            else:
                verdict = json.loads(captured.out)["verdict"]
            assert verdict != expected, argv
