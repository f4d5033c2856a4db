"""Tests for document serialization and SVG rendering."""
import contextlib
import hashlib
import importlib
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.circle import angle, parse_angle
from lamlab.docio import (
    _DEPTH_COLORS,
    _INITIAL_LEAF_COLOR,
    LaminationDocument,
    RenderSpec,
    document_from_state,
    format_angle,
    read_document,
    read_portrait,
    write_document,
    write_portrait,
    write_svg,
)
from lamlab.fpp import FixedPointPortrait, canonical_portraits, fixed_sectors
from lamlab.leaves import Lamination, Leaf, check_invariance, validate_prelamination
from lamlab.pullback import (
    CriticalPortrait,
    InsufficientDepthError,
    canonical_lamination,
    classify_sector,
    clp_checks,
    pullback,
)
from states import lf, rabbit_state


@lru_cache(maxsize=None)
def quintic_state():
    return canonical_lamination(FixedPointPortrait(5, ((0, 1),)), 2)


def rabbit_doc():
    return document_from_state(rabbit_state(), "rabbit build")


class TestDocumentModel:
    def test_leaves_sorted_on_construction(self):
        doc = LaminationDocument(degree=2, leaves=(lf("2/7", "4/7"), lf("1/7", "2/7")))
        assert doc.leaves == (lf("1/7", "2/7"), lf("2/7", "4/7"))

    def test_stage_annotations_sort_with_their_leaves(self):
        doc = LaminationDocument(
            degree=2,
            leaves=(lf("2/7", "4/7"), lf("1/7", "2/7")),
            stages=(1, 0),
        )
        assert doc.leaves == (lf("1/7", "2/7"), lf("2/7", "4/7"))
        assert doc.stages == (0, 1)

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"), lf("1/7", "2/7")))

    def test_stage_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cover the leaves"):
            LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),), stages=(0, 1))

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),), stages=(-1,))

    def test_portrait_degree_must_match(self):
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        with pytest.raises(ValueError, match="portrait degree"):
            LaminationDocument(degree=3, leaves=(), portrait=C)

    def test_fpp_degree_must_match(self):
        with pytest.raises(ValueError, match="degree disagrees"):
            LaminationDocument(degree=3, leaves=(), fpp=FixedPointPortrait(5, ()))

    def test_lamination_carries_stage_depth(self):
        doc = rabbit_doc()
        assert doc.lamination().depth == 2
        bare = LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),))
        assert bare.lamination().depth == 0


class TestStateRoundTrip:
    def test_from_state_annotates_first_appearance(self):
        doc = document_from_state(quintic_state(), "build")
        m = dict(zip(doc.leaves, doc.stages))
        assert m[lf(0, "1/4")] == 0
        assert m[lf(0, "1/20")] == 1
        assert m[lf(0, "1/100")] == 2
        assert max(doc.stages) == 2
        assert len(doc.leaves) == 31

    def test_pullback_state_rebuild(self):
        st_in = quintic_state()
        doc = document_from_state(st_in, "build")
        st_out = doc.pullback_state()
        assert st_out.degree == st_in.degree
        assert st_out.depth == st_in.depth
        assert st_out.final.leaves == st_in.final.leaves
        for k in range(st_in.depth + 1):
            assert st_out.frontier(k) == st_in.frontier(k)

    def test_rebuild_without_portrait_fails(self):
        doc = LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),))
        with pytest.raises(ValueError, match="no critical portrait"):
            doc.pullback_state()

    def test_rebuild_without_stages_is_single_stage(self):
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        doc = LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),), portrait=C)
        st_out = doc.pullback_state()
        assert st_out.depth == 0
        assert st_out.final.leaves == {lf("1/7", "2/7")}
        assert replace(doc, stages=(0,)).pullback_state() == st_out

    def test_final_stage_is_the_lamination(self):
        doc = document_from_state(quintic_state(), "build")
        L = doc.lamination()
        assert doc.lamination() is L
        assert doc.pullback_state().final is L
        assert L == quintic_state().final

    def test_check_path_sweeps_the_final_stage_once(self, monkeypatch):
        # clp_checks on the rebuilt state and classify_sector on the
        # document's lamination share the final stage's invariant faces
        P = FixedPointPortrait(5, ((0, 1, 2, 3),))
        state = canonical_lamination(P, 5)
        text = write_document(document_from_state(state, "build"))
        swept = []

        def sweep_spy(L):
            swept.append(len(L))
            return face_sweep(L)

        face_sweep = importlib.import_module("lamlab.leaves")._face_sweep
        for name in ("leaves", "fpp", "pullback"):
            monkeypatch.setattr(importlib.import_module(f"lamlab.{name}"), "_face_sweep", sweep_spy)
        doc = read_document(text)
        clp_checks(doc.pullback_state())
        L = doc.lamination()
        for S in fixed_sectors(doc.fpp):
            with contextlib.suppress(InsufficientDepthError):
                classify_sector(L, doc.portrait, S)
        assert len(state.final) == 15624
        assert swept.count(15624) == 1, swept


class TestJsonCodec:
    def test_round_trip_equality(self):
        doc = rabbit_doc()
        text = write_document(doc)
        assert read_document(text) == doc

    def test_round_trip_bytes(self):
        doc = rabbit_doc()
        text = write_document(doc)
        assert write_document(read_document(text)) == text

    def test_quintic_round_trip(self):
        doc = document_from_state(quintic_state(), "build")
        assert read_document(write_document(doc)) == doc

    def test_angles_serialize_as_exact_fractions(self):
        import json
        import re

        text = write_document(rabbit_doc())
        assert '["1/7", "2/7"]' in text
        payload = json.loads(text)
        for a, b in payload["leaves"] + payload["portrait"]:
            assert re.fullmatch(r"\d+/\d+", a) and re.fullmatch(r"\d+/\d+", b)

    def test_format_angle_explicit_denominator(self):
        assert format_angle(angle(0)) == "0/1"
        assert format_angle(angle("1/7")) == "1/7"

    def test_metadata_preserved(self):
        doc = rabbit_doc()
        back = read_document(write_document(doc))
        assert back.command == "rabbit build"
        assert back.tool_version == doc.tool_version

    def test_not_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            read_document("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            read_document("[1, 2]")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown document keys"):
            read_document('{"degree": 2, "leaves": [], "extra": 1}')

    def test_missing_degree_rejected(self):
        with pytest.raises(ValueError, match="'degree' and 'leaves'"):
            read_document('{"leaves": []}')

    def test_non_integer_degree_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            read_document('{"degree": "2", "leaves": []}')

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError, match="degree must be an integer >= 2"):
            read_document('{"degree": 1, "leaves": []}')

    def test_malformed_leaf_pair_rejected(self):
        with pytest.raises(ValueError, match="pair of angle strings"):
            read_document('{"degree": 2, "leaves": [["1/7"]]}')

    def test_malformed_angle_rejected(self):
        with pytest.raises(ValueError, match="malformed angle"):
            read_document('{"degree": 2, "leaves": [["1/7", "x"]]}')

    def test_non_integer_stage_rejected(self):
        with pytest.raises(ValueError, match="list of integers"):
            read_document(
                '{"degree": 2, "leaves": [["1/7", "2/7"]], "stages": ["0"]}'
            )

    def test_boolean_stage_rejected(self):
        # a JSON boolean is a Python int; it would read as stage 1
        with pytest.raises(ValueError, match="list of integers"):
            read_document(
                '{"degree": 2, "leaves": [["1/7", "2/7"]], "stages": [true]}'
            )

    @pytest.mark.parametrize(
        "extra, message",
        [
            ('"portrait": 5', "'portrait' must be a list"),
            ('"fpp": [1]', "'fpp' must be a list of index blocks"),
            ('"fpp": [[null]]', "'fpp' must be a list of index blocks"),
            # a JSON boolean is a Python int; this would read as the block [0, 1]
            ('"fpp": [[true, false]]', "'fpp' must be a list of index blocks"),
        ],
    )
    def test_malformed_portrait_or_fpp_rejected(self, extra, message):
        with pytest.raises(ValueError, match=message):
            read_document('{"degree": 3, "leaves": [], ' + extra + "}")

    def test_dnary_angles_accepted_on_read(self):
        doc = read_document('{"degree": 2, "leaves": [["_001", "_010"]]}')
        assert doc.leaves == (lf("1/7", "2/7"),)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
                lambda p: p[0] % 31 != p[1] % 31
            ),
            min_size=0,
            max_size=12,
            unique=True,
        )
    )
    def test_random_documents_round_trip(self, raw):
        leaves = {lf(Fraction(a, 31), Fraction(b, 31)) for a, b in raw}
        doc = LaminationDocument(degree=4, leaves=tuple(leaves))
        text = write_document(doc)
        assert read_document(text) == doc
        assert write_document(read_document(text)) == text


def leaf_read_document(text):
    """Reference: the reader that built a Leaf per leaf, before documents read onto the grid."""

    def parse_pair(entry, degree, what):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"each {what} must be a pair of angle strings")
        a, b = entry
        if not isinstance(a, str) or not isinstance(b, str):
            raise ValueError(f"{what} endpoints must be angle strings, got {entry!r}")
        return Leaf(parse_angle(a, degree), parse_angle(b, degree))

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    unknown = set(payload) - {"degree", "leaves", "portrait", "fpp", "stages", "metadata"}
    if unknown:
        raise ValueError(f"unknown document keys: {sorted(unknown)}")
    if "degree" not in payload or "leaves" not in payload:
        raise ValueError("document needs 'degree' and 'leaves'")
    degree = payload["degree"]
    if not isinstance(degree, int):
        raise ValueError("'degree' must be an integer")
    raw_leaves = payload["leaves"]
    if not isinstance(raw_leaves, list):
        raise ValueError("'leaves' must be a list of angle pairs")
    leaves = tuple(parse_pair(e, degree, "leaf") for e in raw_leaves)
    portrait = None
    if payload.get("portrait") is not None:
        raw = payload["portrait"]
        if not isinstance(raw, list):
            raise ValueError("'portrait' must be a list of angle pairs")
        portrait = CriticalPortrait(
            degree, frozenset(parse_pair(e, degree, "portrait chord") for e in raw)
        )
    fpp = None
    if payload.get("fpp") is not None:
        raw_fpp = payload["fpp"]
        if not isinstance(raw_fpp, list) or not all(
            isinstance(b, list) and all(type(i) is int for i in b) for b in raw_fpp
        ):
            raise ValueError("'fpp' must be a list of index blocks")
        fpp = FixedPointPortrait(degree, tuple(tuple(b) for b in raw_fpp))
    stages = None
    if payload.get("stages") is not None:
        raw_stages = payload["stages"]
        if not isinstance(raw_stages, list) or not all(type(s) is int for s in raw_stages):
            raise ValueError("'stages' must be a list of integers")
        stages = tuple(raw_stages)
    meta = payload.get("metadata") or {}
    if not isinstance(meta, dict):
        raise ValueError("'metadata' must be an object")
    return LaminationDocument(
        degree=degree,
        leaves=leaves,
        portrait=portrait,
        fpp=fpp,
        stages=stages,
        tool_version=str(meta.get("tool_version", "")),
        command=str(meta.get("command", "")),
    )


def read_outcome(reader, text):
    """The document a reader returns, as its fields with the leaves as Leafs, or its error."""
    try:
        doc = reader(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    fields = (doc.degree, tuple(doc.leaves), doc.portrait, doc.fpp, doc.stages)
    return "ok", fields + (doc.tool_version, doc.command)


def angle_literals(degree):
    """Well-formed angle literals, as a document may hold them."""
    base = degree if type(degree) is int and 2 <= degree <= 10 else 3
    digits = st.lists(st.integers(0, base - 1).map(str), max_size=3)
    # unreduced, signed and shifted by whole turns
    rational = st.sampled_from([12, 2, 3, 4, 6, 8, 9, 15]).flatmap(
        lambda q: st.integers(1, 6 * q).map(lambda p: f"{p - 3 * q}/{q}")
    )
    return st.one_of(
        rational,
        rational,
        st.sampled_from(["1/2", "2/4", "-1/2", "3/6", "5/2", "1", "-2"]),
        st.tuples(digits, digits.filter(bool)).map(lambda t: "".join(t[0]) + "_" + "".join(t[1])),
        st.integers(0, 6).map(lambda p: f" {p}/7 "),
    )


@st.composite
def document_texts(draw):
    """JSON documents near the valid ones, each with at most one flaw."""
    degree = draw(st.sampled_from([5, 2, 3, 4, 5, 3, 11, 1, True]))
    pair = st.lists(angle_literals(degree), min_size=2, max_size=2, unique=True)
    leaves = draw(st.lists(pair, max_size=8, unique_by=json.dumps))
    flaw = draw(
        st.sampled_from(
            ["none", "none", "none", "pair", "literal", "short", "bool", "negative", "fpp",
             "chord"]
        )
    )
    if flaw == "pair" and leaves:
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(
            st.sampled_from([["1/3"], ["1/3", 1], 7])
        )
    if flaw == "literal" and leaves:
        bad = draw(st.sampled_from(["x", "1.5", "1/0", "1e3", "/3", "", "1/-3", "12_9"]))
        leaves[draw(st.integers(0, len(leaves) - 1))][draw(st.integers(0, 1))] = bad
    payload = {"degree": degree, "leaves": leaves}
    if draw(st.booleans()) or flaw in ("short", "bool", "negative"):
        tags = draw(st.lists(st.integers(0, 3), min_size=len(leaves), max_size=len(leaves)))
        if flaw == "short":
            tags = tags[1:] if tags else [0]
        elif flaw == "bool" and tags:
            tags[0] = True
        elif flaw == "negative" and tags:
            tags[-1] = -1
        payload["stages"] = tags
    if flaw == "fpp" or draw(st.booleans()):
        payload["fpp"] = [[True]] if flaw == "fpp" else [[0, 1]]
    if flaw == "chord" or draw(st.booleans()):
        chords = draw(st.lists(pair, max_size=3, unique_by=json.dumps))
        if flaw == "chord":
            chords.append(draw(st.sampled_from([["1/3"], ["1/3", 1], 7, ["1/2", "2/4"]])))
        payload["portrait"] = chords
    payload["metadata"] = {"tool_version": "t", "command": "c"}
    return json.dumps(payload)


class TestGridReader:
    """read_document parses straight onto the integer grid; the Leaf reader is its oracle."""

    @settings(max_examples=300)
    @given(document_texts())
    def test_equals_leaf_reader(self, text):
        got = read_outcome(read_document, text)
        assert got == read_outcome(leaf_read_document, text)
        if got[0] == "ok":
            assert read_document(text) == leaf_read_document(text)

    @pytest.mark.parametrize("d, blocks", [(3, ((0, 1),)), (5, ((0, 1, 2, 3),))])
    def test_equals_leaf_reader_on_built_documents(self, d, blocks):
        text = write_document(
            document_from_state(canonical_lamination(FixedPointPortrait(d, blocks), 3), "b")
        )
        doc = read_document(text)
        assert doc == leaf_read_document(text)
        assert doc.lamination().scaled == Lamination(d, doc.leaves).scaled

    def test_reduced_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_document('{"degree": 3, "leaves": [["0/1", "1/2"], ["2/2", "2/4"]]}')

    def test_degenerate_after_reduction_rejected(self):
        with pytest.raises(ValueError, match="degenerate leaf at 1/2"):
            read_document('{"degree": 3, "leaves": [["1/2", "-2/4"]]}')

    # one literal longer than int() reads, in a form the column reader would take
    LONG = "1" * (sys.get_int_max_str_digits() + 1) + "/7"

    @pytest.mark.parametrize(
        "payload, error",
        [
            # a degenerate leaf among literals the column reader takes
            ({"degree": 3, "leaves": [["0/1", "1/2"], ["1/2", "2/4"]]}, "degenerate leaf at 1/2"),
            # a degenerate leaf before a malformed literal
            ({"degree": 3, "leaves": [["1/2", "2/4"], ["x", "1/3"]]}, "degenerate leaf at 1/2"),
            # a bad pair shape after a degenerate leaf
            ({"degree": 3, "leaves": [["1/3", "1/3"], ["1/3"]]}, "degenerate leaf at 1/3"),
            # leaves the column reader takes, with a malformed portrait chord
            (
                {"degree": 3, "leaves": [["0/1", "1/2"]], "portrait": [["0/1", "1/2"], ["0", 1]]},
                "portrait chord endpoints must be angle strings",
            ),
            # a degree below 2 with flawed stages: the stages are checked first
            ({"degree": 1, "leaves": [["0/1", "1/2"]], "stages": [True]}, "'stages' must be"),
            ({"degree": True, "leaves": [["0/1", "1/2"]], "stages": [True]}, "'stages' must be"),
            # and with well-typed stages, the document refuses the degree first
            ({"degree": True, "leaves": [["0/1", "1/2"]], "stages": [-1, 0]}, "degree must be"),
            # two separators in one literal and none in the next
            ({"degree": 3, "leaves": [["1/2/3", "4"]]}, "malformed angle literal '1/2/3'"),
            # a literal too long for int(), after a degenerate leaf and on its own
            ({"degree": 3, "leaves": [["1/2", "2/4"], [LONG, "1/3"]]}, "degenerate leaf at 1/2"),
            ({"degree": 3, "leaves": [["0/1", "1/2"], [LONG, "1/3"]]}, "Exceeds the limit"),
        ],
    )
    def test_first_flaw_equals_leaf_reader(self, payload, error):
        text = json.dumps(payload)
        got = read_outcome(read_document, text)
        assert got == read_outcome(leaf_read_document, text)
        assert got[0] == "ValueError" and error in got[1], got

    def test_column_reader_takes_unreduced_terms_and_whole_turns(self, monkeypatch):
        leaves = [["5/2", "1/3"], ["2/4", "13/6"], ["0/9", "12/8"]]
        text = json.dumps({"degree": 3, "leaves": leaves})
        calls = count_terms(monkeypatch)
        doc = read_document(text)
        assert calls == [0]
        assert doc == leaf_read_document(text)
        assert doc.leaves.D == 6


def count_terms(monkeypatch):
    """Count the literals the per-literal reader `_terms` parses from now on."""
    docio = importlib.import_module("lamlab.docio")
    calls = [0]
    terms = docio._terms

    def counting(*args):
        calls[0] += 1
        return terms(*args)

    monkeypatch.setattr(docio, "_terms", counting)
    return calls


class TestNoLeafOnJobPaths:
    """The job paths run on the integer grid: the Leafs they build do not grow with depth."""

    @staticmethod
    def count_leaves(monkeypatch, run):
        built = [0]
        post_init = Leaf.__post_init__

        def counting(self):
            built[0] += 1
            post_init(self)

        with monkeypatch.context() as m:
            m.setattr(Leaf, "__post_init__", counting)
            run()
        return built[0]

    @staticmethod
    def build_and_render(n):
        P = FixedPointPortrait(3, ((0, 1),))
        doc = document_from_state(canonical_lamination(P, n), "build")
        assert len(doc.leaves) == len(replace(doc, command="again").leaves) > 0
        write_svg(read_document(write_document(doc)), RenderSpec(style="geodesic"))

    @staticmethod
    def read_and_check(text):
        def run():
            doc = read_document(text)
            L = doc.lamination()
            assert validate_prelamination(L) == ()
            state = doc.pullback_state()
            assert check_invariance(state.stages[-2], L) == ()
            assert clp_checks(state).ok

        return run

    def test_build_path(self, monkeypatch):
        counts = [
            self.count_leaves(monkeypatch, lambda: self.build_and_render(n)) for n in (2, 4)
        ]
        assert counts[1] <= counts[0], counts

    def test_build_path_builds_two_laminations_from_leaves(self, monkeypatch):
        # the placement's portrait and the portrait read back; the hull, the
        # stages and the documents' laminations come from the grid
        built = [0]
        init = Lamination.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Lamination, "__init__", counting)
        self.build_and_render(3)
        assert built[0] == 2

    def test_written_documents_skip_the_literal_reader(self, monkeypatch):
        # `write_document` writes ASCII `p/q` literals, which are read column by column
        P = FixedPointPortrait(3, ((0, 1),))
        texts = [
            write_document(document_from_state(canonical_lamination(P, n), "b")) for n in (3, 6)
        ]
        calls = count_terms(monkeypatch)
        docs = [read_document(t) for t in texts]
        assert calls == [0]
        assert [write_document(doc) for doc in docs] == texts

    def test_check_path(self, monkeypatch):
        P = FixedPointPortrait(3, ((0, 1),))
        texts = [
            write_document(document_from_state(canonical_lamination(P, n), "b")) for n in (2, 4)
        ]
        counts = [self.count_leaves(monkeypatch, self.read_and_check(t)) for t in texts]
        assert counts[1] <= counts[0], counts


class TestPortraitCodec:
    def test_round_trip(self):
        C = quintic_state().portrait
        text = write_portrait(C)
        assert read_portrait(text) == C
        assert write_portrait(read_portrait(text)) == text

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="'degree' and 'chords'"):
            read_portrait('{"degree": 5}')

    def test_noncritical_chord_rejected(self):
        with pytest.raises(ValueError, match="not critical"):
            read_portrait('{"degree": 2, "chords": [["0/1", "1/7"]]}')

    def test_non_list_chords_rejected(self):
        with pytest.raises(ValueError, match="'chords' must be a list"):
            read_portrait('{"degree": 2, "chords": 7}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown portrait keys: \['x'\]"):
            read_portrait('{"degree": 2, "chords": [["0/1", "1/2"]], "x": 1}')


class TestRenderSpec:
    def test_defaults(self):
        spec = RenderSpec()
        assert spec.size == 600
        assert spec.style == "straight"
        assert spec.labels is None

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RenderSpec(size=0)

    def test_style_restricted(self):
        with pytest.raises(ValueError, match="style"):
            RenderSpec(style="curvy")

    def test_labels_restricted(self):
        with pytest.raises(ValueError, match="labels"):
            RenderSpec(labels="roman")

    def test_leaf_color_by_depth(self):
        cycle = len(_DEPTH_COLORS)
        doc = LaminationDocument(
            degree=2,
            leaves=(lf("1/7", "2/7"), lf("2/7", "4/7"), lf("1/7", "4/7")),
            stages=(0, 1, 1 + cycle),
        )
        strokes = re.findall(r'<path [^>]*stroke="([^"]+)"', write_svg(doc))
        # deepest stage first
        assert strokes == [_DEPTH_COLORS[0], _DEPTH_COLORS[0], _INITIAL_LEAF_COLOR]


class TestSvg:
    def test_empty_document_is_circle_and_dots(self):
        svg = write_svg(LaminationDocument(degree=5, leaves=()))
        assert svg.count("<circle") == 5  # outline plus four fixed points
        assert "<path" not in svg
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert svg.rstrip().endswith("</svg>")

    def test_rabbit_chords_and_dot(self):
        doc = rabbit_doc()
        svg = write_svg(doc)
        # 12 leaves plus one portrait chord; outline plus one fixed point
        assert svg.count("<path") == 13
        assert svg.count("<circle") == 2

    def test_chord_count_matches_leaf_count(self):
        doc = LaminationDocument(
            degree=2, leaves=(lf("1/7", "2/7"), lf("2/7", "4/7"), lf("4/7", "1/7"))
        )
        assert write_svg(doc).count("<path") == 3

    def test_byte_determinism(self):
        doc = rabbit_doc()
        spec = RenderSpec(style="geodesic", labels="rational")
        assert write_svg(doc, spec) == write_svg(doc, spec)

    def test_straight_chords_use_line_segments(self):
        doc = LaminationDocument(degree=4, leaves=(lf(0, "1/4"),))
        svg = write_svg(doc)
        assert " L " in svg and " A " not in svg

    def test_geodesic_quarter_span_radius_equals_circle_radius(self):
        # a span of 1/4 turn gives an orthogonal arc of radius r*tan(pi/4) = r
        doc = LaminationDocument(degree=4, leaves=(lf(0, "1/4"),))
        svg = write_svg(doc, RenderSpec(style="geodesic"))
        assert "A 276.0000 276.0000 0 0 1" in svg

    def test_geodesic_diameter_falls_back_to_segment(self):
        doc = LaminationDocument(degree=2, leaves=(lf(0, "1/2"),))
        svg = write_svg(doc, RenderSpec(style="geodesic"))
        assert " L " in svg and " A " not in svg

    def test_depth_colors_applied(self):
        doc = rabbit_doc()
        svg = write_svg(doc)
        assert _INITIAL_LEAF_COLOR in svg
        assert _DEPTH_COLORS[0] in svg
        assert _DEPTH_COLORS[1] in svg

    def test_rational_labels(self):
        doc = LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),))
        svg = write_svg(doc, RenderSpec(labels="rational"))
        assert svg.count("<text") == 2
        assert ">1/7<" in svg

    def test_dnary_labels(self):
        doc = LaminationDocument(degree=2, leaves=(lf("1/7", "2/7"),))
        svg = write_svg(doc, RenderSpec(labels="dnary"))
        assert ">_001<" in svg

    def test_dnary_labels_refused_for_big_degree(self):
        doc = LaminationDocument(degree=11, leaves=())
        with pytest.raises(ValueError, match="d <= 10"):
            write_svg(doc, RenderSpec(labels="dnary"))

    def test_custom_size(self):
        svg = write_svg(LaminationDocument(degree=2, leaves=()), RenderSpec(size=100))
        assert 'viewBox="0 0 100 100"' in svg


# SHA-256 of write_document, then of write_svg with (style, labels) in
# SVG_SPECS order, for the first canonical placement of every portrait with
# d <= 5 pulled back to depth 3 under each policy.  Recorded while circle
# points still compared in Fraction arithmetic; the integer comparisons and
# the integer rendering must leave every byte as it was.
SVG_SPECS = [
    ("straight", "rational"),
    ("straight", "dnary"),
    ("geodesic", "rational"),
    ("geodesic", "dnary"),
]
DOCUMENT_PINS = {
    (2, (), "shortest"): (
        "f77504ff6dad113e0d6032a9540a663464666c9be7e3973cd3c624810587fb1e",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
    ),
    (2, (), "prefer-existing"): (
        "f77504ff6dad113e0d6032a9540a663464666c9be7e3973cd3c624810587fb1e",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
        "eb0fa31f94916e34f154f8a5869afca7d81bb7e65b64806b81d6f3069937b621",
    ),
    (3, (), "shortest"): (
        "af8d85ff4e5049beaca3fec31ce5bc307e0baf455287165abfc580359d3b0ebf",
        "4b5fb50ad77305cc7c643323e520c881dc1e74d16cdafab9ac69240fe5cb7978",
        "4b5fb50ad77305cc7c643323e520c881dc1e74d16cdafab9ac69240fe5cb7978",
        "37de5403d77d05b47de77ceddff1f3a9c9bb90bbe5382f8ac04848ef283a31f9",
        "37de5403d77d05b47de77ceddff1f3a9c9bb90bbe5382f8ac04848ef283a31f9",
    ),
    (3, (), "prefer-existing"): (
        "af8d85ff4e5049beaca3fec31ce5bc307e0baf455287165abfc580359d3b0ebf",
        "4b5fb50ad77305cc7c643323e520c881dc1e74d16cdafab9ac69240fe5cb7978",
        "4b5fb50ad77305cc7c643323e520c881dc1e74d16cdafab9ac69240fe5cb7978",
        "37de5403d77d05b47de77ceddff1f3a9c9bb90bbe5382f8ac04848ef283a31f9",
        "37de5403d77d05b47de77ceddff1f3a9c9bb90bbe5382f8ac04848ef283a31f9",
    ),
    (3, ((0, 1),), "shortest"): (
        "8668832dbe2f9856f135eb20c6169b8ae4b204db4c51d1fa6e1f786faa3fa2cd",
        "1a903366be3f8699f3ae135ed931866b40614a4e9cac4925fb701caa1ec0f6a2",
        "53b8318fff4428f3dbb63e0a0f3c569373a7c3fc6d7a04963828dc41fecc9525",
        "c5dd25ab48f2e684ffc2deb0ff25d48cbddf755632260c22a31d6c209ace9580",
        "566a663d4242fd284082c21bca92a851021bba6d12173873c4fc71d7b98d3dce",
    ),
    (3, ((0, 1),), "prefer-existing"): (
        "e7b6637546f6fc8683aeca42df867a87d925c8cdb183506c54d5a7c2e064e3af",
        "36c71e1938ab93fada3f88fa34a6a043eb6954723e30b01d7e16e8532e71933a",
        "6f03d840445252604c788d5e0407dde72792a8c1ca1bc5f9b19f0aa2fd3474ad",
        "4d5acfc5264046501859d70ed3bd64dfa8e8fd58380499c74d836733643151ec",
        "1c0dac3e4f355d0afcdb2c454891b161003e0486b8e00022af15296f8144c779",
    ),
    (4, (), "shortest"): (
        "fdf2e311b72d673513e9e2012e4eb18e2424ce5ae8c2f87c5e022924058e2a88",
        "f9b81fe7fc6226cdd892c5b2ca264357434ebceb302f379c481286c0aa76ded5",
        "f9b81fe7fc6226cdd892c5b2ca264357434ebceb302f379c481286c0aa76ded5",
        "7ca9c2b5449fc9dc2f7f8e778c81b5e21523726a37e4717cd2c4618b8e06dd36",
        "7ca9c2b5449fc9dc2f7f8e778c81b5e21523726a37e4717cd2c4618b8e06dd36",
    ),
    (4, (), "prefer-existing"): (
        "fdf2e311b72d673513e9e2012e4eb18e2424ce5ae8c2f87c5e022924058e2a88",
        "f9b81fe7fc6226cdd892c5b2ca264357434ebceb302f379c481286c0aa76ded5",
        "f9b81fe7fc6226cdd892c5b2ca264357434ebceb302f379c481286c0aa76ded5",
        "7ca9c2b5449fc9dc2f7f8e778c81b5e21523726a37e4717cd2c4618b8e06dd36",
        "7ca9c2b5449fc9dc2f7f8e778c81b5e21523726a37e4717cd2c4618b8e06dd36",
    ),
    (4, ((0, 1),), "shortest"): (
        "6f7e6ee0ba5d7243158be12e8afd19514a0609ba6926f180b4bbf1536d3af89e",
        "0d3d50d63f7a46969810b758e215d4526e71fe4291360431f1bd60e2831a3f01",
        "51ba38907512ba83d663c676b58daae8808bf7891c1128181366bc675287c721",
        "c21f8c1f58f336cce35efdf55092b2043b14284bcb4accb938cea28907bcc009",
        "cbb06255a7341938d2330813bc5104a0576e69eb3ea4150e37914dbb36ae73fe",
    ),
    (4, ((0, 1),), "prefer-existing"): (
        "26d05acc64ef628693298ab5776d69ada42c830a5ea99989e8c8468e00ca1aec",
        "8e75f4e4ed3fb6837a86d69ed637c456b86717c621e7066e73378b3c60b24a0c",
        "edf2796f7c14a17530c4da8f8972a7b655804ad0fe6906cb7ccda84a2f889be7",
        "45129a19f6795d527230c38a6583b9d6bbb8e73dec026caf864b18e987375a1f",
        "07d78d75acf10aef1c561e57713f8c5576909fdea967833ea843b807f18c5979",
    ),
    (4, ((0, 1, 2),), "shortest"): (
        "0c8ceb7f9645cc5ce62222bce59e9cf8251c9764a60aedcf9cd028674d3fb5ab",
        "dcbf402f83c94ed5184d2ac9a47f42ef1c0e548e72de77c4cc9ea6f7b67d9cb5",
        "a9234254c3a7b3c5774bd8e075b40df368da4b17f3cf603a05f79615c420f29b",
        "9e10b49bee855f4e79e61690f4a53b21f447f2300e0fe220f7428e1ff32dbfd0",
        "d8dde61dc5ffa7eba90ec9ecc961b7882dac763b6b2aba12a0ee483e16f2cfc9",
    ),
    (4, ((0, 1, 2),), "prefer-existing"): (
        "706f15d2870d15a1bc1ea44ce8ff8b73d1d3879b1272af49180905e2bd296b4c",
        "4698a780a4415216f3e90ff9f3f9728d41f1709108ab2a4b46d203a56d75e690",
        "0cf55e6b1b4d76875a555522ccfef77724a30c63d11d757562c807af9ae270fd",
        "bb087eeb77d1a2930341058f0b824dc27d5cbe823ad009d6bf8e5ac02305ee6c",
        "7343a3f2056d0d96305a97db12b762969d0d72353199781dea79f1437f49b3bc",
    ),
    (4, ((0, 2),), "shortest"): (
        "7448ae5d56da907192adc8eb502f8b4f1a8b02d8fb759da6006ec765b075f3d0",
        "4335bb5bb60058dbc556485d38bfc321d4aaa609da4443f2361a3f7e429116f1",
        "f3e96345b776192a2cf164d896a99ded68905a089e933605fefbc314805c41f8",
        "2d3d6639896918d78fbac0d041aa4c4d8c7cb8e1c3d886c5f74ff4085c4bbcac",
        "296bfa056a54168cfc9571b4ce131fe44236bad22092661dec47436ec0e97b50",
    ),
    (4, ((0, 2),), "prefer-existing"): (
        "3194f049594b7c8f21286f48915dfc0273db5814e80223b968a3e875ba47071d",
        "a0cc0b15c7a6eebb6259898edf0294167dcb56eb13412b5639e3eba8f1196085",
        "404466773ee4a3225da0fac4c8fb04e8ee03c6adb84dc09944834c2ca3257c74",
        "12aefa2f6559c67ff8d36f7ca672f0013a06162cc6963c795693f76a6ad67105",
        "e5f555823ca58c94a2235b5d109722cc3d8260165ca835241544c78f66901054",
    ),
    (4, ((1, 2),), "shortest"): (
        "e941c8c95fe670e69e0eb2a624df64a4ed274992ac669861c626119b81be3a0e",
        "1495ce256d0b908d6e48e824acd437877af60ac4028c36fc514f1122b2568c83",
        "e24afb52def25f2eedbba3bd2adb5cedd1651496b094073f7dc636201ece6bdf",
        "4d0f8143ca97c75cdc31ed7794c3676a68c5ffd3ebdd70760f7c5afaab84fa0f",
        "1e2ac6c3096c71fbf2f9e5d334d9fac9a433ef92804feb0906246ed606c1b824",
    ),
    (4, ((1, 2),), "prefer-existing"): (
        "31449b3f5ab70e6a8730953c4b308ffff112ac0b7d67c55cf2d012acc72c7bc7",
        "001d63cc608e862c67000002384a7539a217513761d6d62d74dde6dfac9c13af",
        "4758bc12ba0f4580a95834754f48794e0cd519603156b68dcf6637cd9202249e",
        "06a76bc36fcf032b5123937bae60f0cf3d633342d8e02f654a4284f59a1b4ebc",
        "a362f9e0e0ec56d19d99aa1937a1b07b4f250fcae36f533d8070b689a254276a",
    ),
    (5, (), "shortest"): (
        "dbba47605d5f9fb1b1f5c3613f10d799f0efa00bfc9261642489001cfa7eecbe",
        "143f3bd1edcc1ed77866ddedcabf6e6856c8e6e4cca30b7fd022d4ffb1b2d4e8",
        "143f3bd1edcc1ed77866ddedcabf6e6856c8e6e4cca30b7fd022d4ffb1b2d4e8",
        "36b65e71ba1b4174d5f5bc0ea971bb908b40c84fca5ac548b4234d815b9d2a22",
        "36b65e71ba1b4174d5f5bc0ea971bb908b40c84fca5ac548b4234d815b9d2a22",
    ),
    (5, (), "prefer-existing"): (
        "dbba47605d5f9fb1b1f5c3613f10d799f0efa00bfc9261642489001cfa7eecbe",
        "143f3bd1edcc1ed77866ddedcabf6e6856c8e6e4cca30b7fd022d4ffb1b2d4e8",
        "143f3bd1edcc1ed77866ddedcabf6e6856c8e6e4cca30b7fd022d4ffb1b2d4e8",
        "36b65e71ba1b4174d5f5bc0ea971bb908b40c84fca5ac548b4234d815b9d2a22",
        "36b65e71ba1b4174d5f5bc0ea971bb908b40c84fca5ac548b4234d815b9d2a22",
    ),
    (5, ((0, 1),), "shortest"): (
        "d6f897c6f90b70656ff484cbada183f3f0a12b4a274832d1933d8c0dc43bd6a7",
        "191bc998a916f0f7285ef7d4610165299920bdbd1d3651429277ba83f1461b5f",
        "7e4429fd81fc70342bc7aaf8abf0c507221c7e6d1c1bc2d14eccc909d994f1e5",
        "c684f3a57b472d4f4163242aa70d9d1c502cb06f03164ffc2e88e5668d858abe",
        "b4506b689e41d84cfb59b0db5a7bf973aa151e0bf3613c6b85e446a09606191d",
    ),
    (5, ((0, 1),), "prefer-existing"): (
        "79cb1f523e1a3b32303becd5d5bf2bbf4ba838ee840e536245af90b3b889c309",
        "d4bda8537588df14ac9e9b38629061e141e643b697a878153a3b2e7a2a535a04",
        "1d939b6b0b0cbc1b71441f7f07d5798ea7008593ac6098e9314b632ca2609d26",
        "0b0b9451ea68556b0335c181515f1652c1a5f76eec5f4775bd69c4bf7a60c931",
        "4ca123483b2553b853039bb5b6482e08791df6bf4afa50aa2204d90f540e23c3",
    ),
    (5, ((0, 1, 2),), "shortest"): (
        "d4a961c386861046bdb680418e59e29861fdb91edb631985b95fc3774820610a",
        "3133cb2adac57690cb6dfdbc541aacccce564854f9f30383ed43834245c77711",
        "4d72108f397b59ad638001ee35104d9829b8a03b961742dd6daf254d0e8322ab",
        "631fd39fbd6c6b1c054cc4a339e1d7ec214de73aad62e47b2cb0fc0f3217017e",
        "6452ddce640fc3ea1657b6dec88f68f82a9c105e98af4f0f37ba916802e34cd3",
    ),
    (5, ((0, 1, 2),), "prefer-existing"): (
        "bbd9b7ebf3c0d8c69ef73598e84a1e2ffb3ffa02bdcdda9a3b028f45f0a38d98",
        "1dd0a7842352ed8f111b10b81ed5f29c2ae5f92a05335e5b3e977adec11d273f",
        "f216dab5626573e7283edea395687f424db178e5f6765663f32dd9a3e9b01349",
        "7b44dbac665db7fd32f02537612c0fbe2f630f72d501addb160c5d5b863a8bce",
        "7592bb61180e866b544ebf84b1237bed91f23027673a41d40a834e7e3394e4fd",
    ),
    (5, ((0, 1, 2, 3),), "shortest"): (
        "5c45f74a3ff0117264469195c9d0c85e4b611e94408ecb8582a389616d0aec67",
        "f44f7bc14dbb933537b08dd7e1c47a6fb6faa2cb8ea75d12d1c8c2a656c53093",
        "9820a03874f3cd4b636098f29d2bf05e53de0d971e37ffdf260f2628bf1c8312",
        "0cc6b1584224c1f7673d1ae339aac37d04dc8681d51480e79d3976e71475ae21",
        "169198e1cffa7954d4bdd5c8e3c3c87c7db006e9bc22be62869ab2babfffc7e0",
    ),
    (5, ((0, 1, 2, 3),), "prefer-existing"): (
        "f4b2b37958ee750d80a540dc25e2861ff1b13213e03ef4d894e6b05f9b683cf3",
        "fe8908ccd1754c127709bbea63bc56b1a23cffd63db9e28d312bff1bd2b763dc",
        "dda9ca65bac9570d7eccd4b009a3442defbeef5097790d137e563df9180e1d99",
        "5bd0b39cb15b74d0e6dc1b8284bef408dd589551a31ce17c59c5e5dce4063dcd",
        "bbad0e420c46c9c50db29831bd082c8455c69e6c970de35f23b21f905fb514a6",
    ),
    (5, ((0, 1, 3),), "shortest"): (
        "7384d0bc7f841d3b0aaec9ad914477c3216ff452bbd3280df48ee34b46dc22d3",
        "216c83ba224f20677e40ca28473b23b49fa991195f46dbb51a940ecdad1b342b",
        "0e7fba1c21e327014cdb891c0a039ab383b6994bc8fb16b0ffff766d700c7a67",
        "5588492a9ebac12a98ce17de9cc178dc8370ee5d3533a580da6ff9a8cb68ad59",
        "19c45d0fa13ea20e5c49b72d4d55461c984fd137a258170128bc12eb557b2699",
    ),
    (5, ((0, 1, 3),), "prefer-existing"): (
        "8e4c501cd47c0bee9ea77e72e02465f2aac66a6111436d74bc8879011aa40f65",
        "7738b15972f66cc2e2b68c3f22869918cd524941b88e23a24e61713e2bbb6049",
        "fe1e28fd678e796378ca3cfae7612342c2143f4c789843e5671535a1acb6342a",
        "0a32211ae7570264858291f761404cec077bc5666bb76c41d66d89134c5248c7",
        "905e50670c306f7da574af32abae74624a8e1c962cf4a75c049c04b8b8f18971",
    ),
    (5, ((0, 2),), "shortest"): (
        "9b90ee328029cc9434852f60e05eadb478c40d91835e4f3ef846c1ffbdfa62fa",
        "05fd1cf2c2e3f362c42fad4a3d1fd755fab4ff3a1468d2224574b16d018152f9",
        "d0915b5c84a5506611448fe18471a6b408ee8b5ebc4a995652b4096afc7275f3",
        "b86a4a9f7c279ee97a9f22f6b38f061bdacb946bff10db4dd150ac414b8b7652",
        "9f0ad95613a29590b53e885d336c92acd8a034087932dda5cc5e8ec2356d02c3",
    ),
    (5, ((0, 2),), "prefer-existing"): (
        "e4a41b99f617d251ea27d996659d83064ff0d7b417b5649686339738641bb1f6",
        "06d9357c109b478ab0270c49ee5dcd26f4ce8b338b89c987c3d8114c0e541e4d",
        "5731a29936253e6757734589707aa23656d928e86f0cb404fafbc66917d2d721",
        "3f0628036ef036d2027599c55f5f49763cfcec61505b5857f696145e2ea45158",
        "99a9ef4f056bae526f4474c5d89fc4c44f7976d5b86712b97dc24fa09796aa56",
    ),
    (5, ((0, 2, 3),), "shortest"): (
        "f0d2e41e564a625873925c86139006bf70d008a94818145111cd9ebe13ebbc4c",
        "08aa5a7bf8804568170fcc3db2d6c0231f941938eed5e1e688deada9de7fdcae",
        "91427d6af56c58a1b7c05f91a39f844fb7c9005409c46df8d37ef58135571701",
        "9676f91a89cceea5246af8aac9059741749d60a7f9e1fe9d51050cf489f050c7",
        "0a5f78ff9951c2b0151a7fb73cfbdc2d06e07a2b651146a5c91a7c6baba8de50",
    ),
    (5, ((0, 2, 3),), "prefer-existing"): (
        "146536263591e72453f8b7b18caf0a82534ca4adaaabd376769e929912e00db0",
        "da37695820c18ed134d483da11d621134dd2f50c28dc65c8067347d3d5f6c7ae",
        "7e243ef0111ea58cd691eb148ccc4714e42575c172d1676f5c74bfad2eca260b",
        "a08849fdb398aa44c4a7619f1040e9e318c130263677605558618e8be8343fe3",
        "b058f4ae44eff7d749395f686a933634cba407e499cd6b45ce342a05efdd8fde",
    ),
    (5, ((0, 3),), "shortest"): (
        "bf9aa7fc30f9e2e64f6c84ba56783008b1ff124a067c8884f21f2abb59fe446b",
        "39b930cc7c2731ad62215444f3874e680b7cfd0068e30ee6106dbbf0736b6671",
        "9a197cd3970c5a001f6facfbf5b52d790044c3b7920c604bfd425e9a0a3edf13",
        "bc8ac8699304bbc6b5561779e5d28229f0b98aad94bdbfd71fb71e4069742675",
        "376a3f5268cda4f9670ccc36b53afec8a6fae48c929d67a7866b6f67e7d12a3b",
    ),
    (5, ((0, 3),), "prefer-existing"): (
        "922045e813c7a365eae74fde99606eebd0dc56d275a675cab67d2804ac597e03",
        "97abecb57a4849640447f367bdd7c72f18f5a1ddec9398b6db46ff2b6a71a7c8",
        "74e78a5e89704ac8990f60b6cf07a82d94aef6bb3b61347589b567014f3cfc0e",
        "50457a66c4e7639d349431a8677dba4f52bab35ba7406060eb0891e7cab6494f",
        "7fb823d7ba0e00243636d20dd9bffd84eba93c26d3e40c50fdbf46603ae65b57",
    ),
    (5, ((1, 2),), "shortest"): (
        "275982d123e4112c9e7b029a82027e8e69c031576e92d98993b3c83f3fd75b30",
        "a6b81e23ebfa0b9ffb1f0807f28489fb88512ad9723c758161ad50a5866974ae",
        "03a44a86a22608c2f41ee47c1c0d6156adb099b0451f99a4096aa0aa5314e3c3",
        "e8af10fe02bf4c92f269f6c2712e8c63b9943d622d384fea432caab309ffa687",
        "263d1a510be125247346e300b6de41912d218f4cc8e50c56881cf0c9ee5eaada",
    ),
    (5, ((1, 2),), "prefer-existing"): (
        "30faca638bc64b9572ea92b861667b84ea7fdc03c69cd999e026cf6d386b88e4",
        "c4532aae0429b1178d73b6ca3f9eb7773f2f3536a38785fdc406c14bdc5cab0f",
        "a81ef4dbf8908f9471240f65a75b882490107d7a980f6994d8159999a2f97728",
        "6bd06f49fe6a4493849acca36b5f7c55e0be16fdba2ce3b89875c0051f3be861",
        "e335a8c221bbe52dd75c1fd1600169adfd4d992e07b0fbca015ff7c7c0616992",
    ),
    (5, ((1, 2, 3),), "shortest"): (
        "ad6f779a6c269b53b2b9c2b159dc7d86d0d4b217924d384e9cb2afd440cff942",
        "d288291787cbbd9e46c886394da7a8b8ebcb63a1f108e5676ff28fcfecf37dfc",
        "af9cb32917a8c0a47c2f6f47fb51200510e65a7919ede36b26ee9b557b4a8ee7",
        "3371781d6b9ddff4ae24a2f016c39472c529032b279bb7a2b49d3924bfba6fcf",
        "d2dc6aa24c073882d55135b1a66da77e91d4c36612f7024b4c7f5ef88457fd91",
    ),
    (5, ((1, 2, 3),), "prefer-existing"): (
        "1658423f89c32af78101edd2ba5f72681e401cffb9f773582f11a73582695ad2",
        "ff04ed87a634b51d0868adc682471d6c5c77c787959ea6be7b96b1f82f56145f",
        "2d59a69c75f25a5abd7b8c8b8ff9c1101ea8bb1ef3954f341b78c9bc6f336aff",
        "a7958b69a57abb3f74ce457abd6c0253a330d9ba11057f78b586987bca30d549",
        "f50b680222bc08527f97499d52b3e6c194419c721aeaece98453db7f05fc6632",
    ),
    (5, ((1, 3),), "shortest"): (
        "d5fffa3ab40229d6bb2e72adccad4cc32e971f3d56acf09108fe0d841105277c",
        "deaa7df513c0eb2df81568a15202269e002907fb02ad5c843bc57599a0072bbd",
        "47eda6b2e62a77aa2b1f018847ac0202688dfad5ca0027ff1a8d0d85bc9431dc",
        "a4147c9c68196066b768950351c86c5c44b13efd449d78c729b5b8bb901639f4",
        "db661e5b5ef820eda8ca0027e037821dbd179049f699af70efe76ead0c0076e2",
    ),
    (5, ((1, 3),), "prefer-existing"): (
        "0ae78038024d6fa66876e47702b41c7ab95a03b9c6b5442a8b8dc80d8f59f331",
        "d5880fcd71672174ff670dff828a83e91df6ebd06ad677cf01a88f5ef8ddc583",
        "34c7377a9397596fe57baecce9c39ca788c0a8e382bf569869799301c33bbfef",
        "44b57e121e9f0c59a5724fdc0b5d3af4a0ca9583045d1c56a3ba5f763afc3bad",
        "5507e95630db9a795f0b44b6848a9fa430bdd5397d22815d4b665eb7e1b03168",
    ),
    (5, ((2, 3),), "shortest"): (
        "5a795ef4b46792f478643d0119285c280d3945d74c3611570ded34f4f9437173",
        "d8a0dfdd0e690af675e3ca9aa2de258defb18fcad377045e29d8741853450476",
        "c1d97fe99fe26f592a2c5103eb955b2fea347a6d2aa7c8b7cd88206544647218",
        "72e9fcf09de3c364902bbc32b4c49693fc5d57b4d5b4b851c1f010a1cb9aef22",
        "fb8012a0e15f3539cff0c45de06897e55f0a5b22702424427f7f2fb4806ee812",
    ),
    (5, ((2, 3),), "prefer-existing"): (
        "3479be016556530cf462f4865530b1d98e1d3d6aca77cc3fab30ed236c9c2d82",
        "a9c5c1ae2d12b74419085958866414491a22b9fd05ef680d5be07e4e2ec7b605",
        "78f7af5333fefc0855384a719c6d1b42f5780698ae7414f13b3a38b731c0ccf2",
        "9ce6d129df59dfaca98693a97eac78e41480a7f8689c45b600914a6ab132099a",
        "edbce953e2ae65054c78ad245a8aaf4addcd042124aba31e3a89895f4f667ff0",
    ),
    (5, ((0, 1), (2, 3)), "shortest"): (
        "4c23e2b517939b66deee724bf383abc3c191634ab2546b38076f18fd4c20bcc3",
        "a2f150f1e7d5cbb9c867b487ceded750aef6af0e3106b19b76fee21335eb42ca",
        "afca5b4ce235a647724eae2ec0bd6e866e07ae4fda42f183a693462ea794bf42",
        "520604207a3385e933ae5952f660cbefe974dc90926e81d24b463f7c7b2f6540",
        "54f8179dabd0329a5282140d9b4f1246779035937d8566364e0c41de11df76de",
    ),
    (5, ((0, 1), (2, 3)), "prefer-existing"): (
        "d450cf1a4c758d29347bb7a318be1dfa9dd944ca81e2d26aee1f17f309a748a2",
        "3ce734c28334e2cc3a5edd0ffe311257f229f7dea9a9696f323646d1ae4d3f22",
        "71c6b52cbd2e755d97771aa5494e5edda214827f750cb3d1bd465c6168d85d8f",
        "ac530020c11fc44a851d802b17ebf61004a62c3b5fa0982d63ca6b32da5650e1",
        "055badd52c76cf45a4092a5ed34aae92c9181019967b33fa068ee9be1fe7ebb0",
    ),
    (5, ((0, 3), (1, 2)), "shortest"): (
        "5ecc4eaa567a8fb493d271da18e5107dc1c77af849325b060a006d6bd89e8ce0",
        "8f7abd5cbfd9f280adfdf7ebb2a9657568c13279d8e9d5eafc3481d740e7ffd6",
        "c19c316427b50528804c2e1d349d07a711fd166029e624d3d80194a6e44478d0",
        "8c19986b857174a962fa66e9d757540af94717d58d59dc878fec73608eed8588",
        "dee75387048c7a75467167733a271898ac75cad7eab1d22078e37d44e11509b9",
    ),
    (5, ((0, 3), (1, 2)), "prefer-existing"): (
        "3f1a41992d66138b524e2cd82f31a1726bd556a84648574fc73be36933dacb6a",
        "2537fca245a68fc2f303fe2f11cc2b3aa0e625112db3188113f22f5b51ce893c",
        "339a6aaceb52616d47b456cc11bb560fbd71b3743f87a29036cfb3967c07c9d5",
        "c513c13dde0db38227199ee8dca7feb3aeafcc7977f73185d7d624eb23159dc1",
        "14a5cd48abf139ef78b70c1e4685f5bc4fcbd8ea0027dcfa998e51d13cb19aa6",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "degree, blocks, policy",
    list(DOCUMENT_PINS),
    ids=[
        f"d{d}:{','.join('-'.join(map(str, b)) for b in blocks) or 'none'}:{policy}"
        for d, blocks, policy in DOCUMENT_PINS
    ],
)
def test_document_path_bytes_are_pinned(degree, blocks, policy):
    P = FixedPointPortrait(degree, blocks)
    C = canonical_portraits(P)[0].as_critical_portrait()
    state = pullback(Lamination(degree, P.hull_leaves), C, 3, policy=policy)
    doc = document_from_state(replace(state, fpp=P), "pin")
    text = write_document(doc)
    assert write_document(read_document(text)) == text
    digests = [_sha(text)]
    for style, labels in SVG_SPECS:
        digests.append(_sha(write_svg(doc, RenderSpec(style=style, labels=labels))))
    assert tuple(digests) == DOCUMENT_PINS[degree, blocks, policy]
