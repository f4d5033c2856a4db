"""Tests for the command line interface, driven through main()."""
import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from lamlab import cli, leaves
from lamlab.cli import main
from lamlab.docio import document_from_state, write_document, write_portrait
from lamlab.fpp import FixedPointPortrait
from lamlab.leaves import Lamination
from lamlab.pullback import CriticalPortrait, canonical_lamination, pullback
from states import basilica_state, lf, rabbit_state


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def jline(out, i=0):
    return json.loads(out.splitlines()[i])


@lru_cache(maxsize=None)
def rabbit_doc_text():
    return write_document(document_from_state(rabbit_state(), "rabbit"))


@lru_cache(maxsize=None)
def mixed_quartic_texts():
    F0 = Lamination(
        4,
        frozenset(
            {lf(0, "1/3"), lf("7/15", "11/15"), lf("13/15", "14/15")}
        ),
    )
    C = CriticalPortrait(
        4, frozenset({lf(0, "1/4"), lf("1/3", "5/6"), lf("7/15", "43/60")})
    )
    state = pullback(F0, C, 2)
    return write_document(document_from_state(state, "mixed")), write_portrait(C)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        rc, _, _ = run(capsys)
        assert rc == 2

    def test_unknown_group(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 2

    def test_unknown_flag(self, capsys):
        rc, _, _ = run(capsys, "fpp", "enum", "--degree", "5", "--wat")
        assert rc == 2

    def test_missing_required_flag(self, capsys):
        rc, _, _ = run(capsys, "fpp", "enum")
        assert rc == 2

    def test_malformed_angle_literal(self, capsys):
        rc, out, err = run(capsys, "rot", "number", "--degree", "2", "--points", "1/7,zap")
        assert rc == 2
        assert "malformed angle" in err
        assert out == ""

    def test_empty_point_list(self, capsys):
        rc, out, err = run(capsys, "rot", "number", "--degree", "2", "--points", ",")
        assert rc == 2
        assert "expected a comma separated list of angles" in err
        assert out == ""

    def test_degree_too_small(self, capsys):
        rc, _, err = run(capsys, "fpp", "enum", "--degree", "1")
        assert rc == 2
        assert "degree" in err

    def test_version(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0
        assert out.startswith("lamlab ")

    def test_help(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "fpp" in out

    def test_missing_input_file(self, capsys):
        rc, _, err = run(capsys, "lam", "check", "--file", "/no/such/file.json")
        assert rc == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("rot orbits --degree 2 --period 0", "period must be >= 1"),
            ("fpp canonical --degree 3 --fpp 0-1 --depth -1 --out x.json", "depth must be >= 0"),
            ("fpp canonical --degree 3 --fpp 0-x --depth 1 --out x.json", "malformed block '0-x'"),
        ],
    )
    def test_out_of_range_arguments(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv.split())
        assert rc == 2
        assert out == ""
        assert message in err
        assert not (tmp_path / "x.json").exists()


class TestFppEnum:
    def test_degree_five_count(self, capsys):
        rc, out, _ = run(capsys, "fpp", "enum", "--degree", "5")
        assert rc == 0
        obj = jline(out)
        assert obj["status"] == "ok"
        assert obj["count"] == 14
        assert len(obj["portraits"]) == 14
        assert [[0, 1], [2, 3]] in obj["portraits"]

    def test_degree_five_up_to_rotation(self, capsys):
        rc, out, _ = run(capsys, "fpp", "enum", "--degree", "5", "--up-to-rotation")
        assert rc == 0
        assert jline(out)["count"] == 6

    def test_degree_two(self, capsys):
        rc, out, _ = run(capsys, "fpp", "enum", "--degree", "2")
        assert rc == 0
        obj = jline(out)
        assert obj["count"] == 1
        assert obj["portraits"] == [[]]

    def test_json_file_mirrors_stdout(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        rc, out, _ = run(capsys, "fpp", "enum", "--degree", "4", "--json", str(target))
        assert rc == 0
        assert json.loads(target.read_text()) == jline(out)

    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "fpp", "enum", "--degree", "6")
        _, out2, _ = run(capsys, "fpp", "enum", "--degree", "6")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["--degree", "12"], "58786"),
            (["--degree", "12", "--up-to-rotation"], "58786"),
            (["--degree", "14"], "more than 200000"),
            (["--degree", str(10**12)], "more than 200000"),
        ],
    )
    def test_portrait_count_is_capped_before_enumerating(self, capsys, monkeypatch, argv, shown):
        def refuse(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "enumerate_fpps", refuse)
        monkeypatch.setattr(cli, "fpps_up_to_rotation", refuse)
        rc, out, err = run(capsys, "fpp", "enum", *argv)
        assert rc == 2
        assert out == ""
        assert err == (
            f"lamlab: error: degree {argv[1]} means {shown} portraits to enumerate; "
            f"the limit is {cli.MAX_PORTRAITS}\n"
        )

    def test_portrait_limit_is_inclusive(self, capsys, monkeypatch):
        # Catalan(4) = 14 portraits at degree 5, Catalan(5) = 42 at degree 6
        monkeypatch.setattr(cli, "MAX_PORTRAITS", 14)
        rc, out, _ = run(capsys, "fpp", "enum", "--degree", "5")
        assert rc == 0
        assert jline(out)["count"] == 14
        rc, _, err = run(capsys, "fpp", "enum", "--degree", "6", "--up-to-rotation")
        assert rc == 2
        assert "means 42 portraits" in err

    def test_portrait_count_is_catalan(self):
        for d in range(2, 13):
            assert cli._portrait_count(d) == math.comb(2 * d - 2, d - 1) // d
        assert cli._portrait_count(11) == 16796 <= cli.MAX_PORTRAITS


class TestFppCanonical:
    def test_build_writes_document(self, capsys, tmp_path):
        target = tmp_path / "q.json"
        rc, out, _ = run(
            capsys,
            *("fpp canonical --degree 5 --fpp 0-1 --depth 2 --out".split()),
            str(target),
        )
        assert rc == 0
        obj = jline(out)
        assert obj["status"] == "ok"
        assert obj["leaves"] == 31
        payload = json.loads(target.read_text())
        assert payload["degree"] == 5
        assert len(payload["leaves"]) == 31
        assert max(payload["stages"]) == 2
        assert payload["fpp"] == [[0, 1]]
        assert (
            payload["metadata"]["command"]
            == "fpp canonical --degree 5 --fpp 0-1 --depth 2"
        )

    def test_rebuild_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = "fpp canonical --degree 5 --fpp 0-1,2-3 --depth 2 --out".split()
        assert run(capsys, *argv, str(a))[0] == 0
        assert run(capsys, *argv, str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trivial_portrait_spelled_none(self, capsys, tmp_path):
        target = tmp_path / "e.json"
        rc, _, _ = run(
            capsys,
            *("fpp canonical --degree 5 --fpp none --depth 0 --out".split()),
            str(target),
        )
        assert rc == 0
        assert json.loads(target.read_text())["fpp"] == []

    def test_empty_start_is_not_capped_by_depth(self, capsys, tmp_path):
        # no initial leaves: the work is one unit per stage
        target = tmp_path / "x.json"
        argv = "fpp canonical --degree 2 --fpp none --depth 13 --out".split()
        assert run(capsys, *argv, str(target))[0] == 0
        assert json.loads(target.read_text())["leaves"] == []

    @pytest.mark.parametrize(
        "degree, blocks, depth, shown",
        [
            # 4 * (5^13 - 1)/4 = 1,220,703,124 leaves, about 1.2e9
            ("5", "0-1-2-3", "12", "more than 500000"),
            ("2", "none", str(10**9), "more than 500000"),
            # (3^11 - 1)/2 = 88,573 leaves plus 11 stages
            ("3", "0-1", "10", "88584"),
        ],
        ids=["quintic-depth-12", "empty-huge-depth", "cubic-depth-10"],
    )
    def test_leaf_work_is_capped_before_building(
        self, capsys, tmp_path, monkeypatch, degree, blocks, depth, shown
    ):
        def refuse(*args):
            raise AssertionError("pullback started")

        monkeypatch.setattr(cli, "canonical_lamination", refuse)
        target = tmp_path / "x.json"
        argv = ["fpp", "canonical", "--degree", degree, "--fpp", blocks, "--depth", depth]
        rc, out, err = run(capsys, *argv, "--out", str(target))
        assert rc == 2
        assert out == ""
        leaves = {"0-1-2-3": 4, "none": 0, "0-1": 1}[blocks]
        assert err == (
            f"lamlab: error: degree {degree}, depth {depth} and {leaves} initial leaves "
            f"mean {shown} leaves and stages to build; the limit is {cli.MAX_LEAVES}\n"
        )
        assert not target.exists()

    def test_leaf_work_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        # d=3, portrait 0-1: 1 + 3 + 9 leaves and 3 stages at depth 2
        monkeypatch.setattr(cli, "MAX_LEAVES", 16)
        argv = "fpp canonical --degree 3 --fpp 0-1 --depth 2 --out".split()
        assert run(capsys, *argv, str(tmp_path / "x.json"))[0] == 0
        argv = "fpp canonical --degree 3 --fpp 0-1 --depth 3 --out".split()
        rc, _, err = run(capsys, *argv, str(tmp_path / "y.json"))
        assert rc == 2
        assert "mean 44 leaves and stages" in err

    def test_leaf_work_counts_leaves_and_stages(self):
        for d in range(2, 7):
            for leaves in range(5):
                for n in range(8):
                    want = leaves * (d ** (n + 1) - 1) // (d - 1) + n + 1
                    if want > 10 * cli.MAX_LEAVES:
                        want = None
                    assert cli._leaf_work(leaves, d, n) == want
        # the bound holds the leaves the pullback actually builds
        for d, blocks, n in [(3, (0, 1), 4), (5, (0, 1, 2, 3), 2), (5, (0, 1), 3)]:
            state = canonical_lamination(FixedPointPortrait(d, (blocks,)), n)
            work = cli._leaf_work(len(state.initial), d, n)
            assert len(state.final) <= work - (n + 1)

    def test_high_degree_is_not_capped_by_matchings(self, capsys, tmp_path):
        # 157 leaves at degree 12, where Catalan(12) = 208,012 matchings per leaf
        argv = "fpp canonical --degree 12 --fpp 0-1 --depth 2 --out".split()
        rc, out, _ = run(capsys, *argv, str(tmp_path / "x.json"))
        assert rc == 0
        assert jline(out)["leaves"] == 157

    @pytest.mark.parametrize(
        "degree, blocks", [(10**9, "none"), (cli.MAX_FIXED_POINTS + 2, "0-1")]
    )
    def test_degree_is_capped_before_building(
        self, capsys, tmp_path, monkeypatch, degree, blocks
    ):
        def refuse(*args):
            raise AssertionError("portrait built")

        monkeypatch.setattr(cli, "FixedPointPortrait", refuse)
        target = tmp_path / "x.json"
        argv = ["fpp", "canonical", "--degree", str(degree), "--fpp", blocks, "--depth", "0"]
        rc, out, err = run(capsys, *argv, "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err == (
            f"lamlab: error: degree {degree} means {degree - 1} fixed points; "
            f"the limit is {cli.MAX_FIXED_POINTS}\n"
        )
        assert not target.exists()

    def test_fixed_point_limit_is_inclusive(self, capsys, tmp_path):
        degree = str(cli.MAX_FIXED_POINTS + 1)
        argv = ["fpp", "canonical", "--degree", degree, "--fpp", "none", "--depth", "0"]
        rc, out, _ = run(capsys, *argv, "--out", str(tmp_path / "x.json"))
        assert rc == 0
        assert jline(out)["degree"] == cli.MAX_FIXED_POINTS + 1

    def test_single_index_block_rejected(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            *("fpp canonical --degree 5 --fpp 0 --depth 1 --out".split()),
            str(tmp_path / "x.json"),
        )
        assert rc == 2
        assert "two indices" in err

    def test_out_of_range_block_rejected(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            *("fpp canonical --degree 5 --fpp 0-9 --depth 1 --out".split()),
            str(tmp_path / "x.json"),
        )
        assert rc == 2
        assert "out of range" in err


class TestLamCheck:
    def test_clean_document(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        rc, out, _ = run(capsys, "lam", "check", "--file", str(f))
        assert rc == 0
        obj = jline(out)
        assert obj["status"] == "ok"
        assert obj["check"] == "prelamination"
        assert obj["violations"] == []

    def test_crossing_document_fails(self, capsys, tmp_path):
        f = tmp_path / "x.json"
        f.write_text(
            '{"degree": 2, "leaves": [["0/1", "1/2"], ["1/4", "3/4"]]}'
        )
        rc, out, _ = run(capsys, "lam", "check", "--file", str(f))
        assert rc == 1
        obj = jline(out)
        assert obj["status"] == "fail"
        assert obj["violations"][0]["kind"] == "crossing"

    def test_exponent_angle_literal_fails(self, capsys, tmp_path):
        # Fraction would read "1e400" as 0; only integers and p/q are angles
        f = tmp_path / "e.json"
        f.write_text('{"degree": 2, "leaves": [["1e400", "1/3"]]}')
        rc, out, _ = run(capsys, "lam", "check", "--file", str(f))
        assert rc == 1
        assert len(out.splitlines()) == 1
        obj = jline(out)
        assert obj["status"] == "fail"
        assert "malformed angle literal '1e400'" in obj["error"]

    def test_invariance_between_stages(self, capsys, tmp_path):
        shallow, deep = tmp_path / "s.json", tmp_path / "d.json"
        argv = "fpp canonical --degree 5 --fpp 0-1 --depth 1 --out".split()
        assert run(capsys, *argv, str(shallow))[0] == 0
        argv = "fpp canonical --degree 5 --fpp 0-1 --depth 2 --out".split()
        assert run(capsys, *argv, str(deep))[0] == 0
        rc, out, _ = run(
            capsys, "lam", "check", "--file", str(shallow), "--against", str(deep)
        )
        assert rc == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["check"] == "prelamination"
        inv = json.loads(lines[1])
        assert inv["check"] == "invariance"
        assert inv["status"] == "ok"
        assert inv["violations"] == []

    def test_invariance_against_unrelated_document(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(rabbit_doc_text())
        b.write_text('{"degree": 2, "leaves": [["1/3", "2/3"]]}')
        rc, out, _ = run(capsys, "lam", "check", "--file", str(a), "--against", str(b))
        assert rc == 1
        inv = jline(out, 1)
        assert inv["status"] == "fail"
        assert "not contained" in inv["error"]

    def test_invariance_violations_fail(self, capsys, tmp_path):
        # one leaf carried onto itself lacks its sibling
        f = tmp_path / "t.json"
        f.write_text('{"degree": 2, "leaves": [["1/3", "2/3"]]}')
        rc, out, _ = run(capsys, "lam", "check", "--file", str(f), "--against", str(f))
        assert rc == 1
        assert jline(out, 0)["status"] == "ok"
        inv = jline(out, 1)
        assert inv["status"] == "fail"
        assert inv["check"] == "invariance"
        assert inv["violations"] == [
            {"kind": "sibling", "detail": "no full sibling collection over Leaf(1/3, 2/3)"}
        ]

    def test_malformed_document_fails_with_report(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"degree": 2}')
        rc, out, _ = run(capsys, "lam", "check", "--file", str(f))
        assert rc == 1
        assert jline(out)["status"] == "fail"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"degree": 3, "leaves": [], "portrait": 5}', "must be a list"),
            ('{"degree": 3, "leaves": [], "fpp": [1]}', "must be a list"),
            ('{"degree": 1, "leaves": []}', "degree must be an integer >= 2"),
            # JSON booleans are not stage numbers or fixed point indices
            (
                '{"degree": 2, "leaves": [["1/7", "2/7"]], "stages": [true]}',
                "'stages' must be a list of integers",
            ),
            (
                '{"degree": 3, "leaves": [], "fpp": [[true, false]]}',
                "'fpp' must be a list of index blocks",
            ),
        ],
    )
    def test_malformed_fields_fail_with_report(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.json"
        f.write_text(text)
        rc, out, err = run(capsys, "lam", "check", "--file", str(f))
        assert rc == 1
        assert len(out.splitlines()) == 1
        assert message in jline(out)["error"]
        assert err == ""


class TestRotCommands:
    def test_orbit_enumeration(self, capsys):
        rc, out, _ = run(capsys, "rot", "orbits", "--degree", "2", "--period", "3")
        assert rc == 0
        obj = jline(out)
        assert obj["count"] == 2
        assert obj["orbits"][0] == {
            "points": ["1/7", "2/7", "4/7"],
            "rotation": "1/3",
        }
        assert obj["orbits"][1]["points"] == ["3/7", "5/7", "6/7"]

    def test_orbit_rotation_filter(self, capsys):
        rc, out, _ = run(
            capsys, "rot", "orbits", "--degree", "2", "--period", "3", "--rotation", "2/3"
        )
        assert rc == 0
        obj = jline(out)
        assert obj["count"] == 1
        assert obj["orbits"][0]["points"] == ["3/7", "5/7", "6/7"]

    @pytest.mark.parametrize("rotation", ["0.5", "1e999999999"])
    def test_rotation_decimal_or_exponent_is_usage_error(self, capsys, rotation):
        # only integers and p/q are rotation numbers, as for angles
        rc, out, err = run(
            capsys, "rot", "orbits", "--degree", "3", "--period", "2", "--rotation", rotation
        )
        assert rc == 2
        assert out == ""
        assert err == f"lamlab: error: malformed rotation number {rotation!r}\n"

    def test_rotation_not_in_lowest_terms(self, capsys):
        rc, _, err = run(
            capsys, "rot", "orbits", "--degree", "2", "--period", "6", "--rotation", "2/6"
        )
        assert rc == 2
        assert "lowest terms" in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            # phi(14) = 6 rotation numbers, C(22, 14) = 319,770 tuples each
            (["--degree", "9", "--period", "14"], "1918620"),
            (["--degree", "9", "--period", "14", "--rotation", "1/14"], "319770"),
            (["--degree", "2", "--period", str(10**12)], "more than 1000000"),
            (["--degree", str(10**12), "--period", "2"], "more than 1000000"),
        ],
    )
    def test_orbit_work_is_capped_before_enumerating(self, capsys, monkeypatch, argv, shown):
        def refuse(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "enumerate_rotational_orbits", refuse)
        rc, out, err = run(capsys, "rot", "orbits", *argv)
        assert rc == 2
        assert out == ""
        assert err == (
            f"lamlab: error: degree {argv[1]} and period {argv[3]} mean {shown} digit "
            f"tuples to read; the limit is {cli.MAX_ORBIT_TUPLES}\n"
        )

    def test_orbit_cap_counts_digit_tuples(self):
        # phi(q) * C(q+d-1, q), or C(q+d-1, q) for one rotation number
        for d in range(2, 7):
            for q in range(1, 9):
                phi = sum(1 for s in range(q) if math.gcd(s, q) == 1)
                per = math.comb(q + d - 1, q)
                assert cli._orbit_tuples(d, q, True) == per
                assert cli._orbit_tuples(d, q, False) == phi * per
        assert cli._orbit_tuples(6, 10, False) == 12012 <= cli.MAX_ORBIT_TUPLES

    def test_rotation_number_plain_output(self, capsys):
        rc, out, _ = run(
            capsys, "rot", "number", "--degree", "2", "--points", "1/7,2/7,4/7"
        )
        assert rc == 0
        assert out == "1/3\n"

    def test_rotation_number_dnary_points(self, capsys):
        rc, out, _ = run(
            capsys, "rot", "number", "--degree", "2", "--points", "_001,_010,_100"
        )
        assert rc == 0
        assert out == "1/3\n"

    def test_non_rotational_set_fails(self, capsys):
        rc, out, _ = run(capsys, "rot", "number", "--degree", "2", "--points", "1/7,3/7")
        assert rc == 1
        assert jline(out)["status"] == "fail"


class TestCorrCommands:
    def test_uni_to_max_rabbit(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        rc, out, _ = run(
            capsys, "corr", "uni-to-max", "--file", str(f), "--polygon", "1/7,2/7,4/7"
        )
        assert rc == 0
        assert jline(out) == {
            "status": "ok",
            "polygon": ["1/7", "2/7", "4/7"],
            "rotation": "1/3",
            "local_degree": 2,
            "all_critical": ["1/14", "4/7"],
            "max_polygon": ["1/7", "2/7", "4/7"],
            "max_rotation": "1/3",
            "majors": [["1/7", "4/7"]],
            "coroots": [],
        }

    def test_uni_to_max_period_two_leaf(self, capsys, tmp_path):
        f = tmp_path / "b.json"
        f.write_text(write_document(document_from_state(basilica_state(), "basilica")))
        rc, out, _ = run(capsys, "corr", "uni-to-max", "--file", str(f), "--polygon", "1/3,2/3")
        assert rc == 0
        assert jline(out) == {
            "status": "ok",
            "polygon": ["1/3", "2/3"],
            "rotation": "1/2",
            "local_degree": 2,
            "all_critical": ["1/3", "5/6"],
            "max_polygon": ["1/3", "2/3"],
            "max_rotation": "1/2",
            "majors": [["1/3", "2/3"]],
            "coroots": [],
        }

    def test_max_to_uni_round_trip(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        rc, out, _ = run(
            capsys, "corr", "max-to-uni", "--file", str(f), "--polygon", "1/7,2/7,4/7"
        )
        assert rc == 0
        obj = jline(out)
        assert obj["polygon"] == ["1/7", "2/7", "4/7"]
        assert obj["majors"] == [["1/7", "4/7"]]

    def test_document_without_portrait_fails(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"degree": 2, "leaves": [["1/7", "2/7"]]}')
        rc, out, _ = run(
            capsys, "corr", "uni-to-max", "--file", str(f), "--polygon", "1/7,2/7,4/7"
        )
        assert rc == 1
        assert "no critical portrait" in jline(out)["error"]

    def test_non_rotational_polygon_fails(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        for op, polygon in (("uni-to-max", "1/7,3/7"), ("max-to-uni", "1/7,3/7,5/7")):
            rc, out, _ = run(capsys, "corr", op, "--file", str(f), "--polygon", polygon)
            assert rc == 1
            assert out == (
                '{"status": "fail", "error": "the image of point 0 (1/7) leaves the set"}\n'
            ), op

    def test_bad_polygon_literal_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        rc, _, err = run(
            capsys, "corr", "uni-to-max", "--file", str(f), "--polygon", "1/7,?"
        )
        assert rc == 2
        assert "malformed angle" in err


class TestClassifyCommand:
    def test_mixed_sector_document(self, capsys, tmp_path):
        doc_text, portrait_text = mixed_quartic_texts()
        f, p = tmp_path / "m.json", tmp_path / "c.json"
        f.write_text(doc_text)
        p.write_text(portrait_text)
        rc, out, _ = run(
            capsys, "classify", "--file", str(f), "--portrait", str(p)
        )
        assert rc == 0
        obj = jline(out)
        assert obj["status"] == "ok"
        assert obj["sector"] == 0
        assert obj["case"] == 3
        assert obj["witness_type"] == 1
        assert obj["rotation"] is None
        assert obj["subtended"] == [False, False, True]
        expected = {
            Fraction(k, 240)
            for k in (
                0, 80, 82, 86, 88, 104, 105, 110, 112, 176, 178, 179,
                180, 200, 202, 206, 208, 224, 225, 230, 232, 236, 238, 239,
            )
        }
        assert {Fraction(s) for s in obj["witness"]} == expected

    def test_insufficient_depth_reported_per_sector(self, capsys, tmp_path):
        f, p = tmp_path / "q.json", tmp_path / "c.json"
        argv = "fpp canonical --degree 5 --fpp 0-1,2-3 --depth 1 --out".split()
        assert run(capsys, *argv, str(f))[0] == 0
        doc = json.loads(f.read_text())
        p.write_text(
            json.dumps({"degree": 5, "chords": doc["portrait"]}) + "\n"
        )
        rc, out, _ = run(capsys, "classify", "--file", str(f), "--portrait", str(p))
        assert rc == 1
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 3
        assert lines[1]["status"] == "ok"
        assert lines[1]["case"] == 1
        assert lines[0]["status"] == "fail"
        assert "insufficient depth" in lines[0]["error"]

    def test_portrait_degree_mismatch(self, capsys, tmp_path):
        doc_text, _ = mixed_quartic_texts()
        f, p = tmp_path / "m.json", tmp_path / "c.json"
        f.write_text(doc_text)
        p.write_text('{"degree": 2, "chords": [["1/14", "4/7"]]}')
        rc, out, _ = run(capsys, "classify", "--file", str(f), "--portrait", str(p))
        assert rc == 1
        assert "disagrees" in jline(out)["error"]

    def test_non_list_chords_fails_with_report(self, capsys, tmp_path):
        doc_text, _ = mixed_quartic_texts()
        f, p = tmp_path / "m.json", tmp_path / "c.json"
        f.write_text(doc_text)
        p.write_text('{"degree": 4, "chords": 7}')
        rc, out, err = run(capsys, "classify", "--file", str(f), "--portrait", str(p))
        assert rc == 1
        assert len(out.splitlines()) == 1
        assert "'chords' must be a list" in jline(out)["error"]
        assert err == ""

    def test_unknown_portrait_key_fails_with_report(self, capsys, tmp_path):
        doc_text, portrait_text = mixed_quartic_texts()
        f, p = tmp_path / "m.json", tmp_path / "c.json"
        f.write_text(doc_text)
        p.write_text(json.dumps({**json.loads(portrait_text), "x": 1}))
        rc, out, _ = run(capsys, "classify", "--file", str(f), "--portrait", str(p))
        assert rc == 1
        assert "unknown portrait keys: ['x']" in jline(out)["error"]

    def test_one_face_sweep_classifies_every_sector(self, capsys, tmp_path, monkeypatch):
        P = FixedPointPortrait(5, ((0, 1, 2, 3),))
        state = canonical_lamination(P, 5)
        f, p = tmp_path / "q.json", tmp_path / "c.json"
        f.write_text(write_document(document_from_state(state)))
        p.write_text(write_portrait(state.portrait))
        swept = []

        def sweep_spy(L):
            swept.append(len(L))
            return face_sweep(L)

        face_sweep = leaves._face_sweep
        monkeypatch.setattr(leaves, "_face_sweep", sweep_spy)
        _, out, _ = run(capsys, "classify", "--file", str(f), "--portrait", str(p))
        assert len(out.splitlines()) == 4, out
        # one sweep of the hull lists the sectors, one of the document classifies them all
        assert sorted(swept) == [len(P.hull_leaves), len(state.final)], swept

    def test_missing_portrait_file(self, capsys, tmp_path):
        doc_text, _ = mixed_quartic_texts()
        f = tmp_path / "m.json"
        f.write_text(doc_text)
        rc, _, err = run(
            capsys, "classify", "--file", str(f), "--portrait", "/no/portrait.json"
        )
        assert rc == 2
        assert "cannot read" in err


class TestRenderCommand:
    def test_dnary_labels_refused_past_degree_ten(self, capsys, tmp_path):
        doc, svg = tmp_path / "e.json", tmp_path / "e.svg"
        doc.write_text('{"degree": 11, "leaves": []}')
        argv = ("render", "--file", str(doc), "--out", str(svg), "--labels", "dnary")
        rc, out, _ = run(capsys, *argv)
        assert rc == 1
        obj = jline(out)
        assert obj["status"] == "fail"
        assert "base-d labels are limited to d <= 10" in obj["error"]
        assert not svg.exists()

    def test_empty_degree_five(self, capsys, tmp_path):
        doc, svg = tmp_path / "e.json", tmp_path / "e.svg"
        doc.write_text('{"degree": 5, "leaves": []}')
        rc, out, _ = run(capsys, "render", "--file", str(doc), "--out", str(svg))
        assert rc == 0
        assert jline(out)["status"] == "ok"
        text = svg.read_text()
        assert text.count("<circle") == 5
        assert "<path" not in text

    def test_canonical_build_renders_portrait_chords(self, capsys, tmp_path):
        doc, svg = tmp_path / "e.json", tmp_path / "e.svg"
        argv = "fpp canonical --degree 5 --fpp none --depth 0 --out".split()
        assert run(capsys, *argv, str(doc))[0] == 0
        assert run(capsys, "render", "--file", str(doc), "--out", str(svg))[0] == 0
        # five chords sharing endpoints carry criticality four for degree five
        text = svg.read_text()
        assert text.count("<circle") == 5
        assert text.count("<path") == 5
        assert text.count("stroke-dasharray") == 5

    def test_rabbit_chords(self, capsys, tmp_path):
        doc, svg = tmp_path / "r.json", tmp_path / "r.svg"
        doc.write_text(rabbit_doc_text())
        rc, _, _ = run(
            capsys, "render", "--file", str(doc), "--out", str(svg), "--style", "geodesic"
        )
        assert rc == 0
        text = svg.read_text()
        assert text.count("<path") == 13
        assert text.count("<circle") == 2

    def test_repeat_renders_identical(self, capsys, tmp_path):
        doc = tmp_path / "r.json"
        doc.write_text(rabbit_doc_text())
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            argv = ["render", "--file", str(doc), "--out", str(target)]
            argv += ["--style", "geodesic", "--labels", "rational"]
            assert run(capsys, *argv)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_labels_rendered(self, capsys, tmp_path):
        doc, svg = tmp_path / "r.json", tmp_path / "r.svg"
        doc.write_text(rabbit_doc_text())
        argv = ["render", "--file", str(doc), "--out", str(svg), "--labels", "dnary"]
        assert run(capsys, *argv)[0] == 0
        assert "<text" in svg.read_text()

    def test_bad_style_rejected(self, capsys, tmp_path):
        doc = tmp_path / "r.json"
        doc.write_text(rabbit_doc_text())
        rc, _, _ = run(
            capsys, "render", "--file", str(doc), "--out", "/tmp/x.svg", "--style", "wavy"
        )
        assert rc == 2

    def test_zero_size_rejected(self, capsys, tmp_path):
        doc = tmp_path / "r.json"
        doc.write_text(rabbit_doc_text())
        rc, _, err = run(
            capsys, "render", "--file", str(doc), "--out", "/tmp/x.svg", "--size", "0"
        )
        assert rc == 2
        assert "positive" in err

    def test_unwritable_output(self, capsys, tmp_path):
        doc = tmp_path / "r.json"
        doc.write_text(rabbit_doc_text())
        rc, _, err = run(
            capsys, "render", "--file", str(doc), "--out", "/no/dir/x.svg"
        )
        assert rc == 2
        assert "cannot write" in err

    @pytest.mark.parametrize("degree", [10**9, cli.MAX_DRAWN_FIXED_POINTS + 2])
    def test_degree_is_capped_before_drawing(self, capsys, tmp_path, monkeypatch, degree):
        # one dot per fixed point: up to a billion of them for this one-leaf file
        doc, svg = tmp_path / "big.json", tmp_path / "big.svg"
        doc.write_text(f'{{"degree": {degree}, "leaves": [["0", "1/2"]]}}')

        def refuse(*args):
            raise AssertionError("drawing started")

        monkeypatch.setattr(cli, "write_svg", refuse)
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, "render", "--file", str(doc), "--out", str(svg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert out == ""
        assert err == (
            f"lamlab: error: degree {degree} means {degree - 1} fixed points; "
            f"the limit is {cli.MAX_DRAWN_FIXED_POINTS}\n"
        )
        assert not svg.exists()
        assert peak < 1_000_000

    def test_degree_past_the_build_bound_still_draws(self, capsys, tmp_path):
        # `fpp canonical` refuses this degree, but drawing it costs one dot per fixed point
        degree = cli.MAX_FIXED_POINTS + 50
        doc, svg = tmp_path / "wide.json", tmp_path / "wide.svg"
        doc.write_text(f'{{"degree": {degree}, "leaves": [["0", "1/2"]]}}')
        rc, out, _ = run(capsys, "render", "--file", str(doc), "--out", str(svg))
        assert rc == 0
        assert jline(out)["leaves"] == 1
        # the boundary circle and one dot per fixed point
        assert svg.read_text().count("<circle ") == 1 + degree - 1


class TestReportShape:
    def test_all_report_lines_carry_status(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(rabbit_doc_text())
        commands = [
            ["fpp", "enum", "--degree", "3"],
            ["lam", "check", "--file", str(f)],
            ["rot", "orbits", "--degree", "2", "--period", "2"],
            ["corr", "uni-to-max", "--file", str(f), "--polygon", "1/7,2/7,4/7"],
        ]
        for argv in commands:
            rc, out, _ = run(capsys, *argv)
            assert rc == 0
            for line in out.splitlines():
                assert "status" in json.loads(line)


class TestFacePrecondition:
    """Commands built on the face subdivision reject crossing leaves."""

    @pytest.fixture
    def crossing_files(self, capsys, tmp_path):
        f, p = tmp_path / "x.json", tmp_path / "c.json"
        argv = "fpp canonical --degree 3 --fpp 0-1 --depth 2 --out".split()
        assert run(capsys, *argv, str(f))[0] == 0
        doc = json.loads(f.read_text())
        doc["leaves"].append(["1/4", "3/4"])  # crosses the hull leaf 0-1/2
        doc["stages"].append(2)
        f.write_text(json.dumps(doc))
        p.write_text(json.dumps({"degree": 3, "chords": doc["portrait"]}))
        return str(f), str(p)

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--portrait", "{p}"),
            ("corr", "uni-to-max", "--polygon", "1/8,3/8"),
            ("corr", "max-to-uni", "--polygon", "0,1/3,2/3"),
        ],
    )
    def test_crossing_document_rejected(self, capsys, crossing_files, argv):
        f, p = crossing_files
        rc, out, _ = run(capsys, *(a.format(p=p) for a in argv), "--file", f)
        assert rc == 1
        assert len(out.splitlines()) == 1
        obj = jline(out)
        assert obj["status"] == "fail"
        assert "Leaf(0, 1/2) crosses Leaf(1/4, 3/4)" in obj["error"]

    def test_lam_check_still_reports_crossing(self, capsys, crossing_files):
        f, _ = crossing_files
        rc, out, _ = run(capsys, "lam", "check", "--file", f)
        assert rc == 1
        assert jline(out)["violations"][0]["kind"] == "crossing"
