"""Tests for document serialization and SVG rendering."""
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from lamlab.circle import angle
from lamlab.docio import (
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
from lamlab.fpp import FixedPointPortrait
from lamlab.leaves import Lamination, Leaf
from lamlab.pullback import CriticalPortrait, canonical_lamination, pullback


def lf(a, b):
    return Leaf(angle(a), angle(b))


@lru_cache(maxsize=None)
def quintic_state():
    return canonical_lamination(FixedPointPortrait(5, ((0, 1),)), 2)


@lru_cache(maxsize=None)
def rabbit_state():
    F0 = Lamination(2, frozenset({lf("1/7", "2/7"), lf("2/7", "4/7"), lf("4/7", "1/7")}))
    C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
    return pullback(F0, C, 2)


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

    @pytest.mark.parametrize(
        "extra, message",
        [
            ('"portrait": 5', "'portrait' must be a list"),
            ('"fpp": [1]', "'fpp' must be a list of index blocks"),
            ('"fpp": [[null]]', "'fpp' must be a list of index blocks"),
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
        spec = RenderSpec()
        assert spec.leaf_color(0) == spec.initial_leaf_color
        assert spec.leaf_color(1) == spec.depth_colors[0]
        assert spec.leaf_color(1 + len(spec.depth_colors)) == spec.depth_colors[0]


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
        spec = RenderSpec()
        assert spec.initial_leaf_color in svg
        assert spec.depth_colors[0] in svg
        assert spec.depth_colors[1] in svg

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
