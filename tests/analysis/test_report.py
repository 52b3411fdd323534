"""Tests of the ASCII report rendering."""

from repro.analysis import EXPERIMENTS, bar, render, table
from repro.analysis.experiments import HEADLINE_PAPER


def test_table_alignment_and_rule():
    text = table(["name", "value"], [["a", 1], ["long-name", 22]],
                 title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1   # every row padded to the same width


def test_bar_scaling():
    assert bar(5, 10, width=10) == "#####"
    assert bar(10, 10, width=10) == "#" * 10
    assert bar(0, 10, width=10) == ""
    assert bar(20, 10, width=10) == "#" * 10   # clamped
    assert bar(1, 0) == ""


def test_format_figure2_includes_average_row():
    rows = [{"benchmark": "bench", "clusters": n, "predict": p, "ipc": 1.0}
            for n in (1, 2, 4) for p in (False, True)]
    text = render(EXPERIMENTS["figure2"], rows)
    assert "AVERAGE" in text
    assert "bench" in text
    assert "paper" in text


def test_format_figure5_reports_degradation():
    rows = [{"entries": 1024, "ipc": 2.8, "confident_fraction": 0.55,
             "hit_ratio": 0.9},
            {"entries": 131072, "ipc": 2.9, "confident_fraction": 0.6,
             "hit_ratio": 0.93}]
    text = render(EXPERIMENTS["figure5"], rows)
    assert "1K" in text and "128K" in text
    assert "degradation 128K -> 1K: 3.4%" in text


def test_format_headline_pairs_paper_and_measured():
    rows = [{"metric": key, "paper": paper, "measured": 0.5}
            for key, paper in HEADLINE_PAPER.items()]
    text = render(EXPERIMENTS["headline"], rows)
    assert "ipcr4_vpb" in text
    assert "paper" in text and "measured" in text
