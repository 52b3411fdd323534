"""The paper's tables and figures as one table of sweep experiments.

Each :class:`Experiment` entry in :data:`EXPERIMENTS` names one table
of the paper (or one of this repo's ablations and extensions): its
variant grid, a reducer from the sweep's results to rows of raw values,
and the layout that renders those rows like the paper's table.  One
runner (:func:`run_experiment`) crosses the grid with the workload
subset into :class:`~repro.analysis.parallel.SweepCell` descriptions
and calls :func:`~repro.analysis.parallel.run_cells` once, so every
entry fans out across worker processes via ``jobs=`` (or
``REPRO_JOBS``), uses the result cache and emits sweep telemetry,
metric-identical to the serial path.  One renderer (:func:`render`)
formats the rows; :func:`~repro.analysis.export.to_csv` and
``to_json`` take them as they are.  The ``repro`` CLI exposes every
entry as a subcommand and ``benchmarks/bench_figures.py`` regenerates
each ``results/`` file from it; EXPERIMENTS.md records the outputs
against the paper's numbers.

Environment knobs (validated once at sweep setup, never read inside
worker processes):

* ``REPRO_TRACE_LEN`` — dynamic instructions per benchmark (default
  12000; the paper ran Mediabench to completion on a C simulator, a
  Python model uses reduced steady-state runs).
* ``REPRO_WORKLOADS`` — comma-separated subset of the suite.
* ``REPRO_JOBS`` — sweep worker processes (default 1 = serial;
  0 = all cores); cells travel to them in about four chunks per worker
  (see docs/PERFORMANCE.md).
* ``REPRO_CACHE`` — opt-in content-addressed result cache directory
  (see :mod:`repro.analysis.cache`).

Several experiments in one session should share a
:class:`~repro.analysis.parallel.WorkerPool` (``with WorkerPool(jobs):``)
so worker startup is paid once, not per table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import SimResult
from ..errors import WorkloadError
from ..predictor import PREDICTORS
from ..workloads import DATASET_OFFSETS, workload_names, workload_trace
from .metrics import mean, pct_change
from .parallel import SweepCell, resolve_trace_length, run_cells
from .report import bar, table

__all__ = [
    "trace_length", "selected_workloads",
    "LedgerEntry", "ErrorLedger",
    "Variant", "Sweep", "Experiment", "EXPERIMENTS", "ABLATIONS",
    "run_experiment", "render", "average",
]


def trace_length(default: int = 12_000) -> int:
    """Dynamic trace length, overridable via ``REPRO_TRACE_LEN``.

    A malformed or non-positive override raises
    :class:`~repro.errors.ConfigError` (not a bare ``ValueError``), so
    sweeps fail at setup with an actionable message instead of deep
    inside a sweep.
    """
    return resolve_trace_length(None, default=default)


def selected_workloads(subset: Optional[str] = None) -> List[str]:
    """The workloads a sweep runs, from a comma-separated list.

    *subset* (the CLI's ``--workloads``) wins; otherwise
    ``REPRO_WORKLOADS`` is read; with neither, the whole suite runs.
    An unknown name, or a list naming no workload at all (``","``),
    raises :class:`~repro.errors.WorkloadError`.
    """
    source = "--workloads"
    if subset is None:
        subset, source = os.environ.get("REPRO_WORKLOADS"), "REPRO_WORKLOADS"
        if not subset:
            return workload_names()
    names = [name.strip() for name in subset.split(",") if name.strip()]
    return _known_workloads(names, source)


def _known_workloads(names: List[str], source: str) -> List[str]:
    if not names:
        raise WorkloadError(f"{source} names no workload; choose from "
                            f"{workload_names()}")
    unknown = [name for name in names if name not in workload_names()]
    if unknown:
        raise WorkloadError(f"unknown workloads in {source}: {unknown}; "
                            f"choose from {workload_names()}")
    return names


# --------------------------------------------------- graceful degradation --

@dataclass
class LedgerEntry:
    """One failed simulation attempt inside a sweep."""

    workload: str
    config: str
    attempt: int
    error_type: str
    message: str

    def render(self) -> str:
        return (f"{self.workload} [{self.config}] attempt {self.attempt}: "
                f"{self.error_type}: {self.message}")


@dataclass
class ErrorLedger:
    """Failures collected by a sweep that refused to abort.

    A multi-hour sweep must not lose every finished cell to one bad
    (workload, configuration) pair, but it must not lose the *failure*
    either — each one lands here with enough context to replay it.
    ``run_cells(cells, ledger=ErrorLedger())`` is the graceful sweep:
    failed cells are ledgered and omitted from its results.
    """

    entries: List[LedgerEntry] = field(default_factory=list)

    def record_failure(self, workload: str, config: str, attempt: int,
                       error_type: str, message: str) -> None:
        """Record a failure from its already-flattened description.

        Worker processes report failures as (type name, message) pairs —
        exception objects do not survive pickling reliably — so this is
        the form the sweep runner records.
        """
        self.entries.append(LedgerEntry(
            workload, config, attempt, error_type, message))

    @property
    def failed_cells(self) -> List[Tuple[str, str]]:
        """Distinct (workload, config) pairs that never succeeded."""
        seen: List[Tuple[str, str]] = []
        for entry in self.entries:
            key = (entry.workload, entry.config)
            if key not in seen:
                seen.append(key)
        return seen

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def render(self) -> str:
        if not self.entries:
            return "error ledger: clean (no failures)"
        lines = [f"error ledger: {len(self.entries)} failed attempt(s)"]
        lines += [f"  {entry.render()}" for entry in self.entries]
        return "\n".join(lines)


# ------------------------------------------------------- the experiment --

@dataclass(frozen=True)
class Variant:
    """One configuration of an experiment's grid, run on every workload.

    ``length`` and ``dataset`` are set only by entries that sweep them;
    ``length=None`` takes the sweep's trace length.  A ``static``
    steering variant gets the one override computed from the workload:
    a perfect profile of the very trace it runs.
    """

    key: Any
    n_clusters: int
    predictor: str = "none"
    steering: str = "baseline"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    length: Optional[int] = None
    dataset: str = "test"


class Sweep:
    """An experiment's results, indexed by (workload, variant key)."""

    def __init__(self, names: Sequence[str], keys: Sequence,
                 sims: Dict[Any, SimResult]):
        self.names = list(names)
        self.keys = list(keys)
        self.sims = sims

    def mean(self, key, metric: str = "ipc") -> float:
        """Suite mean of one metric (see :data:`METRICS`) of a variant."""
        read = METRICS[metric]
        return mean(read(self.sims[(name, key)]) for name in self.names)

    def ipcr(self, key, reference) -> float:
        """Suite-mean IPCR of a variant against a reference variant."""
        return mean(self.sims[(name, key)].ipc
                    / self.sims[(name, reference)].ipc
                    for name in self.names)

    def at(self, part) -> "Sweep":
        """The variants keyed ``(part, key)``, re-keyed by ``key``."""
        return Sweep(self.names,
                     [key for head, key in self.keys if head == part],
                     {(name, key[1]): sim
                      for (name, key), sim in self.sims.items()
                      if key[0] == part})


#: Per-cell metrics the reducers average over the suite.
METRICS: Dict[str, Callable[[SimResult], float]] = {
    "ipc": lambda sim: sim.ipc,
    "comm": lambda sim: sim.comm_per_inst,
    "imbalance": lambda sim: sim.imbalance,
    "hit_ratio": lambda sim: sim.vp_stats.get("hit_ratio", 0.0),
    "confident": lambda sim: sim.vp_stats.get("confident_fraction", 0.0),
}


#: A rendered column: (header, row key, value -> text).
Column = Tuple[str, Any, Callable[[Any], str]]


def _table(exp: "Experiment", rows: List[dict]) -> str:
    """The generic layout: the entry's columns, then its note."""
    text = table([header for header, _, _ in exp.columns],
                 [[fmt(row[key]) for _, key, fmt in exp.columns]
                  for row in rows], exp.title)
    return text + "\n" + exp.note if exp.note else text


@dataclass(frozen=True)
class Experiment:
    """One paper table: its grid, its reducer and its layout.

    ``name`` is the sweep's telemetry label and the CLI subcommand;
    ``result`` is the ``results/`` file stem the benchmark writes (and
    ``csv``, when set, the stem of the rows' CSV beside it).
    """

    name: str
    result: str
    title: str
    note: str
    variants: Tuple[Variant, ...]
    reduce: Callable[[Sweep], List[dict]]
    columns: Tuple[Column, ...] = ()
    layout: Callable[["Experiment", List[dict]], str] = _table
    csv: str = ""


def average(rows: List[dict], metric: str, **where) -> float:
    """Mean of ``row[metric]`` over the rows matching every *where*."""
    return mean(row[metric] for row in rows
                if all(row[key] == value for key, value in where.items()))


def run_experiment(exp: Experiment,
                   workloads: Optional[Sequence[str]] = None,
                   length: Optional[int] = None,
                   jobs: Optional[int] = None) -> List[dict]:
    """Run one entry's grid over the workloads and reduce it to rows.

    *workloads* defaults to :func:`selected_workloads`; *length* to
    ``REPRO_TRACE_LEN`` or 12000, for every variant that does not fix
    its own.
    """
    from ..steering import profile_static_assignment
    names = (selected_workloads() if workloads is None
             else _known_workloads(list(workloads), "workloads"))
    length = resolve_trace_length(length)
    cells: List[SweepCell] = []
    for name in names:
        for variant in exp.variants:
            n = variant.length or length
            overrides = variant.overrides
            if variant.steering == "static":
                # Profiled in the parent: the PC -> cluster dict ships to
                # workers as explicit per-cell config like any override.
                trace = workload_trace(name, n, dataset=variant.dataset)
                overrides += (("static_assignment", profile_static_assignment(
                    trace, variant.n_clusters)),)
            cells.append(SweepCell(
                key=(name, variant.key), workload=name,
                n_clusters=variant.n_clusters, predictor=variant.predictor,
                steering=variant.steering, length=n,
                dataset=variant.dataset,
                overrides=SweepCell.pack_overrides(dict(overrides))))
    sims = run_cells(cells, jobs=jobs, label=exp.name)
    return exp.reduce(Sweep(names, [v.key for v in exp.variants], sims))


def render(exp: Experiment, rows: List[dict]) -> str:
    """Format an entry's rows like the paper's table."""
    return exp.layout(exp, rows)


# ---------------------------------------------------------- the entries --

def _fixed(digits: int) -> Callable[[float], str]:
    return f"{{:.{digits}f}}".format


def _cols(fmt: Callable, *keys) -> Tuple[Column, ...]:
    return tuple((key, key, fmt) for key in keys)


def _schemes(*metrics: str, reference=None) -> Callable[[Sweep], List[dict]]:
    """Reducer: one row per variant (bar *reference*) with suite means;
    the ``ipcr`` metric is taken against *reference*."""
    def reduce(sweep: Sweep) -> List[dict]:
        keys = [key for key in sweep.keys if key != reference]
        return [{"scheme": key, **{
            metric: (sweep.ipcr(key, reference) if metric == "ipcr"
                     else sweep.mean(key, metric)) for metric in metrics}}
                for key in keys]
    return reduce


def _ablation(name: str, result: str, title: str, note: str,
              variants: Sequence[Variant], *metrics: str,
              reference=None) -> Experiment:
    return Experiment(name, result, title, note, tuple(variants),
                      _schemes(*metrics, reference=reference),
                      (("scheme", "scheme", str),) + _cols(_fixed(3),
                                                           *metrics))


def _predicted(n_clusters: int, predict: bool, key=None,
               **overrides) -> Variant:
    """±VP with the steering that goes with it (VPB with prediction)."""
    return Variant(key if key is not None else (n_clusters, predict),
                   n_clusters, "stride" if predict else "none",
                   "vpb" if predict else "baseline",
                   SweepCell.pack_overrides(overrides))


def _figure2_rows(sweep: Sweep) -> List[dict]:
    return [{"benchmark": name, "clusters": n, "predict": predict,
             "ipc": sweep.sims[(name, (n, predict))].ipc}
            for name in sweep.names for n in (1, 2, 4)
            for predict in (False, True)]


def _figure2_layout(exp: Experiment, rows: List[dict]) -> str:
    """Per-benchmark IPC for the six configurations, plus the average."""
    configs = list(dict.fromkeys((row["clusters"], row["predict"])
                                 for row in rows))
    avg = {(n, p): average(rows, "ipc", clusters=n, predict=p)
           for n, p in configs}
    body = [[name] + [f"{row['ipc']:.2f}" for row in rows
                      if row["benchmark"] == name]
            for name in dict.fromkeys(row["benchmark"] for row in rows)]
    body.append(["AVERAGE"] + [f"{avg[config]:.2f}" for config in configs])
    gains = ", ".join(
        f"{n}c: {pct_change(avg[(n, False)], avg[(n, True)]):+.1f}%"
        for n in (1, 2, 4))
    headers = ["benchmark"] + [f"{n}c" + ("+vp" if p else "")
                               for n, p in configs]
    return (table(headers, body, exp.title)
            + f"\nvalue-prediction IPC gain ({gains})\n" + exp.note)


#: The four schemes compared in Figure 3, in bar order.
FIGURE3_SCHEMES = (("baseline-nopredict", "none", "baseline"),
                   ("baseline-predict", "stride", "baseline"),
                   ("vpb-predict", "stride", "vpb"),
                   ("vpb-perfect", "perfect", "vpb"))

#: The paper's Figure 3 IPCR bars, per cluster count.
_FIGURE3_PAPER = {2: "paper: 0.85 / - / 0.89 / 0.96",
                  4: "paper: 0.65 / 0.74 / 0.77 / 0.90"}


def _figure3_rows(sweep: Sweep) -> List[dict]:
    rows = []
    for n in (2, 4):
        for scheme, predictor, _ in FIGURE3_SCHEMES:
            for name in sweep.names:
                sim = sweep.sims[(name, (n, scheme))]
                rows.append({
                    "clusters": n, "scheme": scheme, "benchmark": name,
                    "ipc": sim.ipc,
                    "ipcr": sim.ipc / sweep.sims[(name, ("ref",
                                                         predictor))].ipc,
                    "comm": sim.comm_per_inst, "imbalance": sim.imbalance})
    return rows


def _figure3_layout(exp: Experiment, rows: List[dict]) -> str:
    """Suite-mean bars of imbalance, comm/inst and IPCR per scheme."""
    sections = [exp.title]
    for n in (2, 4):
        for metric, key in (("imbalance", "imbalance"),
                            ("comm/inst", "comm"), ("IPCR", "ipcr")):
            values = {scheme: average(rows, key, clusters=n, scheme=scheme)
                      for scheme, _, _ in FIGURE3_SCHEMES}
            scale = max(values.values()) or 1.0
            sections.append(f"-- {n} clusters, {metric} --")
            sections += [f"  {scheme:<20} {value:7.3f} "
                         f"{bar(value, scale, 30)}"
                         for scheme, value in values.items()]
            if key == "ipcr":
                sections.append(f"  ({_FIGURE3_PAPER[n]})")
    return "\n".join(sections)


def _comm_figure(name: str, result: str, title: str, note: str,
                 override: str, points) -> Experiment:
    """Figure 4's grid: 2/4 clusters x ±VP x (x label, override value)."""
    variants = tuple(
        _predicted(n, predict, (n, predict, x), **{override: value})
        for n in (2, 4) for predict in (False, True) for x, value in points)
    columns = ((("config", "config", str),)
               + _cols(_fixed(2), *(x for x, _ in points))
               + (("degr%", "degr%", _fixed(1)),))
    return Experiment(name, result, title, note, variants, _comm_rows,
                      columns)


def _comm_rows(sweep: Sweep) -> List[dict]:
    xs = list(dict.fromkeys(key[2] for key in sweep.keys))
    rows = []
    for n in (2, 4):
        for predict in (False, True):
            ipc = [sweep.mean((n, predict, x)) for x in xs]
            label = "predict" if predict else "no-predict"
            rows.append({"config": f"{n}c {label}", **dict(zip(xs, ipc)),
                         "degr%": -pct_change(ipc[0], ipc[-1])})
    return rows


def _size_label(size: int) -> str:
    return f"{size // 1024}K" if size >= 1024 else str(size)


def _figure5_rows(sweep: Sweep) -> List[dict]:
    return [{"entries": size, "ipc": sweep.mean(size),
             "confident_fraction": sweep.mean(size, "confident"),
             "hit_ratio": sweep.mean(size, "hit_ratio")}
            for size in sweep.keys]


def _figure5_layout(exp: Experiment, rows: List[dict]) -> str:
    """The generic table, its note led by the largest -> smallest loss."""
    largest, smallest = rows[-1], rows[0]
    loss = -pct_change(largest["ipc"], smallest["ipc"])
    return _table(replace(exp, note=(
        f"IPC degradation {_size_label(largest['entries'])} -> "
        f"{_size_label(smallest['entries'])}: {loss:.1f}% {exp.note}")), rows)


#: The §1/§3.3/§6 summary numbers as the paper states them.
HEADLINE_PAPER = {
    "ipcr4_baseline_nopredict": 0.65, "ipcr4_vpb": 0.77,
    "ipcr4_gain_pct": 18.0, "ipcr2_baseline_nopredict": 0.85,
    "ipcr2_vpb": 0.89, "comm4_nopredict": 0.22, "comm4_vpb": 0.11,
    "ipc_gain_pct_1c": 2.0, "ipc_gain_pct_2c": 8.0, "ipc_gain_pct_4c": 21.0,
}

_HEADLINE_VARIANTS = (Variant("1c", 1), Variant("1c+vp", 1, "stride"),
                      _predicted(2, False, "2c"),
                      _predicted(2, True, "2c+vpb"),
                      _predicted(4, False, "4c"),
                      _predicted(4, True, "4c+vpb"))


def _headline_rows(sweep: Sweep) -> List[dict]:
    ipc = {variant.key: sweep.mean(variant.key)
           for variant in _HEADLINE_VARIANTS}
    measured = {
        "ipcr4_baseline_nopredict": ipc["4c"] / ipc["1c"],
        "ipcr4_vpb": ipc["4c+vpb"] / ipc["1c+vp"],
        "ipcr2_baseline_nopredict": ipc["2c"] / ipc["1c"],
        "ipcr2_vpb": ipc["2c+vpb"] / ipc["1c+vp"],
        "comm4_nopredict": sweep.mean("4c", "comm"),
        "comm4_vpb": sweep.mean("4c+vpb", "comm"),
        "ipc_gain_pct_1c": pct_change(ipc["1c"], ipc["1c+vp"]),
        "ipc_gain_pct_2c": pct_change(ipc["2c"], ipc["2c+vpb"]),
        "ipc_gain_pct_4c": pct_change(ipc["4c"], ipc["4c+vpb"]),
    }
    measured["ipcr4_gain_pct"] = pct_change(
        measured["ipcr4_baseline_nopredict"], measured["ipcr4_vpb"])
    return [{"metric": metric, "paper": paper, "measured": measured[metric]}
            for metric, paper in HEADLINE_PAPER.items()]


#: The trace lengths the robustness entry runs the headline at.
ROBUSTNESS_LENGTHS = (6_000, 12_000)


def _robustness_rows(sweep: Sweep) -> List[dict]:
    return [{"trace length": n, **row}
            for n in ROBUSTNESS_LENGTHS for row in _headline_rows(sweep.at(n))]


def _robustness_layout(exp: Experiment, rows: List[dict]) -> str:
    """The headline table once per trace length."""
    return "\n".join(
        f"--- trace length {n} ---\n" + _table(EXPERIMENTS["headline"], [
            row for row in rows if row["trace length"] == n])
        for n in dict.fromkeys(row["trace length"] for row in rows))


_SCALING_COUNTS = (1, 2, 4, 8)


def _scaling_rows(sweep: Sweep) -> List[dict]:
    rows = []
    for n in _SCALING_COUNTS:
        ipc, ipc_vp = sweep.mean((n, False)), sweep.mean((n, True))
        rows.append({
            "clusters": n, "IPC": ipc, "IPC+vp": ipc_vp,
            "gain%": pct_change(ipc, ipc_vp),
            "IPCR": sweep.ipcr((n, False), ("ref", False)),
            "IPCR+vp": sweep.ipcr((n, True), ("ref", True)),
            "comm": sweep.mean((n, False), "comm"),
            "comm+vp": sweep.mean((n, True), "comm")})
    return rows


def _input_rows(sweep: Sweep) -> List[dict]:
    rows = []
    for dataset in DATASET_OFFSETS:
        part = sweep.at(dataset)
        ipc = {key: part.mean(key) for key in ("1c", "4c", "4c-vpb")}
        rows.append({"dataset": dataset, "IPC 1c": ipc["1c"],
                     "IPC 4c": ipc["4c"], "IPC 4c+vpb": ipc["4c-vpb"],
                     "IPCR4": ipc["4c"] / ipc["1c"],
                     "IPCR4+vpb": ipc["4c-vpb"] / ipc["1c"],
                     "comm 4c": part.mean("4c", "comm"),
                     "comm 4c+vpb": part.mean("4c-vpb", "comm")})
    return rows


_ENTRIES = (
    Experiment(
        "figure2", "figure2_ipc",
        "Figure 2 — IPC, baseline steering, +/- value prediction",
        "(paper: +2% 1c, +5% 2c, +16% 4c)",
        tuple(Variant((n, predict), n, "stride" if predict else "none")
              for n in (1, 2, 4) for predict in (False, True)),
        _figure2_rows, layout=_figure2_layout),
    Experiment(
        "figure3", "figure3_steering",
        "Figure 3 — Baseline/VPB x prediction comparison", "",
        tuple(Variant(("ref", predictor), 1, predictor)
              for predictor in ("none", "stride", "perfect"))
        + tuple(Variant((n, scheme), n, predictor, steering)
                for n in (2, 4)
                for scheme, predictor, steering in FIGURE3_SCHEMES),
        _figure3_rows, layout=_figure3_layout, csv="figure3_per_benchmark"),
    _comm_figure(
        "figure4a", "figure4a_latency",
        "Figure 4(a) — IPC vs communication latency (cycles)",
        "(paper 4a: 17% IPC loss 1->4 cycles at 4c with prediction, "
        "20% without)",
        "comm_latency", [("1", 1), ("2", 2), ("4", 4)]),
    _comm_figure(
        "figure4b", "figure4b_bandwidth",
        "Figure 4(b) — IPC vs paths per cluster",
        "(paper 4b: ~1% IPC loss with a single path/cluster at 4c)",
        "comm_paths_per_cluster", [("1", 1), ("2", 2), ("unbounded", None)]),
    # The stand-ins' static footprint is ~50x smaller than Mediabench's,
    # so the aliasing regime of the paper's 1K point sits at 64-256 here.
    Experiment(
        "figure5", "figure5_vptable",
        "Figure 5 — value predictor table size (4 clusters, VPB)",
        "(paper: < 4.5% from 128K to 1K; hit 93.4% -> 90.9%)",
        tuple(Variant(size, 4, "stride", "vpb", (("vp_entries", size),))
              for size in (64, 256, 1024, 4096, 16384, 131072)),
        _figure5_rows,
        (("entries", "entries", _size_label), ("IPC", "ipc", _fixed(2)),
         ("confident%", "confident_fraction",
          lambda value: f"{value * 100:.1f}"),
         ("hit%", "hit_ratio", lambda value: f"{value * 100:.1f}")),
        layout=_figure5_layout),
    Experiment(
        "headline", "headline", "Headline results — paper vs measured", "",
        _HEADLINE_VARIANTS, _headline_rows,
        (("metric", "metric", str),) + _cols(_fixed(2), "paper", "measured")),
    # The reduced-trace methodology is only sound if the headline's
    # directional claims are stable against the window size.
    Experiment(
        "robustness", "robustness",
        "Headline stability at trace lengths "
        + " and ".join(map(str, ROBUSTNESS_LENGTHS)), "",
        tuple(Variant((n, variant.key), variant.n_clusters,
                          variant.predictor, variant.steering, length=n)
                  for n in ROBUSTNESS_LENGTHS
                  for variant in _HEADLINE_VARIANTS),
        _robustness_rows, layout=_robustness_layout),
    # Mediabench ships one input per benchmark; the conclusions must not
    # hinge on it, so the core comparison reruns on the "train" inputs.
    Experiment(
        "input-sensitivity", "input_sensitivity",
        "Input sensitivity — test vs train datasets", "",
        tuple(Variant((dataset, key), n, predictor, steering,
                      dataset=dataset)
              for dataset in DATASET_OFFSETS
              for key, n, predictor, steering in (
                  ("1c", 1, "none", "baseline"), ("4c", 4, "none", "baseline"),
                  ("4c-vpb", 4, "stride", "vpb"))),
        _input_rows,
        (("dataset", "dataset", str), ("IPC 1c", "IPC 1c", _fixed(2)))
        + _cols(_fixed(3), "IPCR4", "IPCR4+vpb", "comm 4c", "comm 4c+vpb")),
    # §5 frames the design for "an arbitrary number of homogeneous
    # clusters"; Table 1's scaling rule extends to 8 (``derive_preset``).
    Experiment(
        "scaling", "scaling",
        "Cluster-count scaling (Table 1 rule extended, VPB+VP vs no-VP)",
        "(extension: the VP benefit should grow with the degree of "
        "clustering)",
        tuple(_predicted(1, predict, ("ref", predict))
              for predict in (False, True))
        + tuple(_predicted(n, predict) for n in _SCALING_COUNTS
                for predict in (False, True)),
        _scaling_rows,
        (("clusters", "clusters", str),)
        + _cols(_fixed(2), "IPC", "IPC+vp")
        + (("gain%", "gain%", "{:+.1f}".format),)
        + _cols(_fixed(2), "IPCR", "IPCR+vp")
        + _cols(_fixed(3), "comm", "comm+vp")),
    # §3.2: Modified lowers imbalance but not communication, which is
    # what motivates VPB's threshold gate.
    _ablation(
        "ablation-modified", "ablation_modified",
        "Section 3.2 — ungated Modified scheme (4 clusters)",
        "(paper: Modified ~ Baseline IPCR; imbalance -31%; comm flat; "
        "VPB wins)",
        [Variant("ref", 1, "stride")]
        + [Variant(steering, 4, "stride", steering)
           for steering in ("baseline", "modified", "vpb")],
        "ipcr", "comm", "imbalance", reference="ref"),
    _ablation(
        "ablation-rename2", "ablation_rename2",
        "Section 3.3 — 2-cycle rename/steer (4 clusters, VPB)",
        "(paper: < 2% IPC degradation)",
        [Variant(label, 4, "stride", "vpb", (("extra_rename_cycles", extra),))
         for label, extra in (("rename-1-cycle", 0), ("rename-2-cycle", 1))],
        "ipc"),
    # DESIGN.md §6.1: replace-on-mismatch mispredicts twice per loop
    # restart; 2-delta (the paper's reference [19]) waits for a repeat.
    _ablation(
        "ablation-predictor", "ablation_predictor",
        "Stride update discipline (4 clusters, VPB)",
        "(expected: 2-delta predicts more operands at similar accuracy "
        "and wins IPC)",
        [Variant(label, 4, "stride", "vpb", (("vp_two_delta", two_delta),))
         for label, two_delta in (("two-delta", True), ("naive", False))],
        "ipc", "comm", "hit_ratio", "confident"),
    # §2.1: "specific hardware that avoids generating copy instructions.
    # However, we have not assumed any of these optimizations".
    _ablation(
        "ablation-free-copies", "ablation_free_copies",
        "Section 2.1 extension — free copy issue (4 clusters)",
        "(free copies remove the width cost but not the wire latency; "
        "value prediction removes both)",
        [_predicted(4, predict, label, free_copy_issue=free)
         for label, predict, free in (
             ("paper, no VP", False, False),
             ("free copies, no VP", False, True),
             ("paper, VPB", True, False), ("free copies, VPB", True, True))],
        "ipc", "comm"),
    # §5: static partitioning, even profiled on the very trace it runs,
    # cannot react to run-time imbalance.
    _ablation(
        "ablation-static", "ablation_static",
        "Static vs dynamic partitioning (4 clusters)",
        "(paper 5: dynamic steering beats static even with perfect "
        "profiles)",
        [Variant("static (perfect profile)", 4, steering="static"),
         Variant("baseline (dynamic)", 4),
         Variant("vpb (dynamic + VP)", 4, "stride", "vpb")],
        "ipc", "comm", "imbalance"),
    # §6: "the results will likely be better with more complex and
    # effective predictors" — the Sazeides-Smith family it cites.
    _ablation(
        "predictor-comparison", "future_predictors",
        "Value predictor families (4 clusters, VPB)",
        "(paper 6: better predictors should improve VPB further; "
        "perfect is the ceiling)",
        [Variant(predictor, 4, predictor,
                 "vpb" if predictor != "none" else "baseline")
         for predictor in PREDICTORS],
        "ipc", "comm", "hit_ratio", "confident"),
)

#: Every entry by name, in the order the CLI and benchmarks list them.
EXPERIMENTS: Dict[str, Experiment] = {exp.name: exp for exp in _ENTRIES}

#: The entries ``repro ablations`` runs, in order.
ABLATIONS = ("ablation-modified", "ablation-rename2", "ablation-predictor",
             "ablation-free-copies", "ablation-static",
             "predictor-comparison")
