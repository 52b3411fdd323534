"""Tests for the JSON/CSV exporters."""

import csv
import io
import json

from repro.analysis import to_csv, to_json
from repro.analysis.experiments import HEADLINE_PAPER


def test_figure2_long_format(experiment_rows):
    rows = experiment_rows("figure2")
    assert len(rows) == 6    # one benchmark x six configs
    assert {row["clusters"] for row in rows} == {1, 2, 4}
    assert all(row["ipc"] > 0 for row in rows)


def test_figure5_rows_ordered(experiment_rows):
    rows = experiment_rows("figure5")
    assert [row["entries"] for row in rows] == [64, 256, 1024, 4096,
                                                16384, 131072]


def test_ablation_and_headline_and_scaling_rows(experiment_rows):
    rename2 = experiment_rows("ablation-rename2")
    assert to_csv(rename2).splitlines()[0] == "scheme,ipc"
    assert len(experiment_rows("headline")) == len(HEADLINE_PAPER)
    scaling = experiment_rows("scaling")
    assert [row["clusters"] for row in scaling] == [1, 2, 4, 8]
    assert json.loads(to_json(scaling)) == scaling


def test_json_roundtrip(tmp_path):
    rows = [{"a": 1, "b": "x"}]
    path = tmp_path / "out.json"
    text = to_json(rows, str(path))
    assert json.loads(text) == rows
    assert json.loads(path.read_text()) == rows


def test_csv_union_of_keys(tmp_path):
    rows = [{"a": 1}, {"a": 2, "b": 3}]
    path = tmp_path / "out.csv"
    text = to_csv(rows, str(path))
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["a"] == "1"
    assert parsed[1]["b"] == "3"
    assert path.read_text() == text


def test_csv_empty_safe():
    assert to_csv([]) == ""
