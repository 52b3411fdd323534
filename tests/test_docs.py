"""Documentation tests: the tutorial's code blocks actually run.

Extracts every ```python block from docs/TUTORIAL.md and executes them
sequentially in one namespace (the tutorial builds on itself), with a
tiny patch to keep file output inside a temp directory.  Every
documented ``repro`` command line must parse with the current CLI, and
every documented ``REPRO_*`` environment knob must exist in the code.
"""

import ast
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_tutorial_blocks_execute(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # step 7 writes figure2.csv
    text = (DOCS / "TUTORIAL.md").read_text()
    blocks = python_blocks(text)
    assert len(blocks) >= 6
    namespace = {}
    for block in blocks:
        exec(compile(block, "<tutorial>", "exec"), namespace)
    assert (tmp_path / "figure2.csv").exists()
    out = capsys.readouterr().out
    assert "IPC" in out


def test_readme_quickstart_executes(capsys):
    text = README.read_text()
    blocks = python_blocks(text)
    quickstart = next(b for b in blocks if "simulate(" in b)
    exec(compile(quickstart, "<readme>", "exec"), {})
    assert "IPC" in capsys.readouterr().out


def documented_commands():
    """argv of every ``repro`` line in a fenced shell block of the docs."""
    commands = []
    for doc in (README, README.parent / "EXPERIMENTS.md",
                *sorted(DOCS.glob("*.md"))):
        blocks = re.findall(r"^\s*```(\w*)\n(.*?)^\s*```",
                            doc.read_text(), flags=re.S | re.M)
        for lang, block in blocks:
            if lang not in ("", "bash", "console"):
                continue
            for line in block.replace("\\\n", " ").splitlines():
                match = re.match(r"(?:\$\s+)?(?:python -m )?repro\s(.*)",
                                 line.strip())
                if match:
                    commands.append(shlex.split(match.group(1),
                                                comments=True))
    return commands


def test_documented_commands_parse(capsys):
    commands = documented_commands()
    assert len(commands) >= 18
    parser = build_parser()
    broken = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            error = capsys.readouterr().err.strip().splitlines()[-1]
            broken.append(f"repro {shlex.join(argv)}: {error}")
    assert not broken, "\n".join(broken)


def test_documented_env_knobs_exist():
    """A ``REPRO_*`` name in the docs must be a string literal of its
    own in the code under src/ or benchmarks/ (the ``os.environ`` read);
    a mention in a docstring does not count."""
    root = README.parent
    documented = set()
    for doc in (README, root / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))):
        documented.update(re.findall(r"REPRO_[A-Z_]+", doc.read_text()))
    literals = set()
    for path in (*(root / "src").rglob("*.py"),
                 *(root / "benchmarks").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"REPRO_[A-Z_]+", node.value)):
                literals.add(node.value)
    assert len(documented) >= 4
    assert not documented - literals, sorted(documented - literals)


def test_docs_reference_real_files():
    for doc in (README, DOCS / "ARCHITECTURE.md", DOCS / "TUTORIAL.md"):
        text = doc.read_text()
        for match in re.findall(r"`(benchmarks/\w+\.py)`", text):
            assert (README.parent / match).exists(), match
        for match in re.findall(r"`(examples/\w+\.py)`", text):
            assert (README.parent / match).exists(), match


def _table_under(text: str, heading: str) -> list:
    """Cells of the first markdown table under *heading*, per row."""
    rows = []
    for line in text.split(heading, 1)[1].splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows


def _numbers(cell: str) -> list:
    """The numbers a table cell prints outside its parentheses."""
    return re.findall(r"\d+(?:\.\d+)?", re.sub(r"\(.*?\)", "", cell))


def _as_printed(values, printed) -> list:
    """*values* rounded to the decimals of the matching *printed*."""
    return [f"{v:.{len((p + '.').split('.')[1])}f}"
            for v, p in zip(values, printed)]


def test_experiments_headline_matches_results():
    """EXPERIMENTS.md's measured headline column is results/headline.txt
    at the precision it prints."""
    rows = _table_under((README.parent / "EXPERIMENTS.md").read_text(),
                        "## Headline")
    column = rows[0].index("measured")
    printed = [n for row in rows[2:] for n in _numbers(row[column])]
    lines = (README.parent / "results" / "headline.txt").read_text()
    measured = [float(line.split()[-1]) for line in lines.splitlines()[3:]]
    assert len(printed) == len(measured) == 10
    assert printed == _as_printed(measured, printed)


def test_experiments_figure2_matches_results():
    """Figure 2's measured averages (and their VP gains) in
    EXPERIMENTS.md are the AVERAGE row of results/figure2_ipc.txt."""
    rows = _table_under((README.parent / "EXPERIMENTS.md").read_text(),
                        "## Figure 2")
    cells = [row[rows[0].index("measured avg")] for row in rows[2:]]
    printed = [n for cell in cells for n in _numbers(cell)]
    text = (README.parent / "results" / "figure2_ipc.txt").read_text()
    average = re.search(r"^\s*AVERAGE\s+(.*)$", text, flags=re.M).group(1)
    measured = [float(v) for v in average.split()]
    assert len(printed) == len(measured) == 6
    assert printed == _as_printed(measured, printed)
    gains = [g for cell in cells for g in re.findall(r"\(\+([\d.]+)%\)",
                                                    cell)]
    assert gains == re.findall(r"\dc: \+([\d.]+)%", text)


#: Figure 3's schemes as EXPERIMENTS.md names them, to the row names of
#: results/figure3_steering.txt.
_FIGURE3_ROWS = {"baseline, no predict": "baseline-nopredict",
                 "baseline + stride": "baseline-predict",
                 "VPB + stride": "vpb-predict",
                 "VPB + perfect": "vpb-perfect"}


def test_experiments_figure3_matches_results():
    """Figure 3's measured IPCR and comm/inst in EXPERIMENTS.md, at 4
    and 2 clusters, are results/figure3_steering.txt's at the precision
    they print."""
    section = (README.parent / "EXPERIMENTS.md").read_text() \
        .split("## Figure 3", 1)[1]
    values, block = {}, None
    for line in (README.parent / "results" / "figure3_steering.txt") \
            .read_text().splitlines():
        header = re.match(r"-- (.*) --$", line)
        row = re.match(r"\s+([\w-]+)\s+([\d.]+)(?:\s|$)", line)
        if header:
            block = header.group(1)
        elif row:
            values[block, row.group(1)] = float(row.group(2))
    checked = 0
    for heading, clusters in (("4 clusters", 4), ("2 clusters:", 2)):
        rows = _table_under(section, heading)
        for column, metric in (("IPCR measured", "IPCR"),
                               ("comm measured", "comm/inst")):
            if column not in rows[0]:
                continue
            index = rows[0].index(column)
            for row in rows[2:]:
                printed = _numbers(row[index])
                measured = values[f"{clusters} clusters, {metric}",
                                  _FIGURE3_ROWS[row[0]]]
                assert printed == _as_printed([measured], printed), row
                checked += 1
    assert checked == 11


def test_every_module_imports_cleanly():
    import importlib
    import pkgutil

    import repro
    count = 0
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue   # running the CLI parser is tested in test_cli
        importlib.import_module(module.name)
        count += 1
    assert count >= 60
