"""Export experiment rows to JSON/CSV for external plotting.

The ASCII layouts in :mod:`repro.analysis.experiments` are for
eyeballing; these exporters write the same rows — the raw values
:func:`~repro.analysis.experiments.run_experiment` returns — as
machine-readable files, so the figures can be re-plotted with any tool.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict

__all__ = ["interval_rows", "to_csv", "to_json"]


def interval_rows(metrics) -> list:
    """Flattened sample rows from a :class:`repro.obs.IntervalMetrics`.

    One dict per sampled interval, list-valued gauges expanded to
    ``name_c<i>`` columns — ready for :func:`to_csv`/:func:`to_json`.
    """
    return metrics.rows()


def to_json(rows: list, path: str = None) -> str:
    """Serialize rows as pretty JSON; optionally write to *path*."""
    text = json.dumps(rows, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text


def to_csv(rows: list, path: str = None) -> str:
    """Serialize rows as CSV (union of keys); optionally write *path*."""
    if not rows:
        return ""
    fields: Dict[str, None] = {}
    for row in rows:
        for key in row:
            fields.setdefault(key, None)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(fields),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
