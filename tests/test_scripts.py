"""Smoke tests for the scripts under scripts/, driven through their main()."""
import importlib.util
import json
from math import comb
from pathlib import Path

import pytest

from lamlab.docio import read_document

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fpp_census_counts(tmp_path, capsys):
    table = tmp_path / "census.json"
    # census_row raises AssertionError if a portrait's sectors break the d-1 budget
    assert load("fpp_census").main(["--max-degree", "7", "--json", str(table)]) == 0
    rows = json.loads(table.read_text())
    assert [r["degree"] for r in rows] == list(range(2, 8))
    for r in rows:
        n = r["degree"] - 1
        assert r["portraits"] == comb(2 * n, n) // (n + 1)
        spent = sum((int(k) - 1) * v for k, v in r["sector_degree_histogram"].items())
        assert spent == n * r["portraits"]
    assert f"{7:>3} {132:>10}" in capsys.readouterr().out


def test_render_gallery_documents_read_back(tmp_path, capsys):
    argv = ["--degree", "3", "--depth", "2", "--out-dir", str(tmp_path)]
    assert load("render_gallery").main(argv) == 0
    docs = sorted(tmp_path.glob("*.json"))
    assert [p.stem for p in docs] == ["d3_01", "d3_trivial"]
    assert sorted(p.stem for p in tmp_path.glob("*.svg")) == ["d3_01", "d3_trivial"]
    # the trivial portrait has no hull leaf to pull back
    docs = {p.stem: read_document(p.read_text()) for p in docs}
    assert {k: len(doc.leaves) for k, doc in docs.items()} == {"d3_01": 13, "d3_trivial": 0}
    assert all(doc.degree == 3 for doc in docs.values())
    assert max(docs["d3_01"].stages) == 2
    assert "2 renderings" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["fpp_census", "render_gallery"])
def test_scripts_reject_bad_degree(name):
    flag = "--max-degree" if name == "fpp_census" else "--degree"
    with pytest.raises(SystemExit) as e:
        load(name).main([flag, "1"])
    assert e.value.code == 2
