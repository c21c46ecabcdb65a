"""Machine-readable run artifacts: versioned JSON reports and CSV tables.

All writers are deterministic: keys are sorted, floats use the shortest
round-trip representation, and no timestamps enter the payload, so repeated
runs with the same configuration produce byte-identical files.  The one
deliberate exception is the convergence table's runtime column, which records
wall-clock seconds.
"""

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

# 2: an iterative solve reports its conditioning as null, and the config
# echo no longer carries radial_order, triangle_order or seed.
SCHEMA_VERSION = 2
ENV_OUTPUT_DIR = "BDIE_OUT"


def resolve_output_dir(requested: Optional[str] = None) -> Path:
    """Output directory for report files; the environment override wins."""
    env = os.environ.get(ENV_OUTPUT_DIR)
    path = Path(env) if env else Path(requested or "bdie-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "tolist"):
        return _canonical(value.tolist())
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return float(value)


def write_json_report(path, payload: dict) -> Path:
    """Write a versioned JSON report with canonical formatting."""
    body = _canonical(dict(payload))
    body["schema_version"] = SCHEMA_VERSION
    text = json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
    path = Path(path)
    path.write_text(text + "\n")
    return path


def read_json_report(path) -> dict:
    return json.loads(Path(path).read_text())


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a sweep, with its error metrics and runtime."""

    level: int
    h_surface: float
    n_cells: int
    metrics: tuple
    runtime_seconds: float


@dataclass
class ConvergenceTable:
    """Fixed-column convergence table that round-trips losslessly via CSV.

    Columns are ``level, h_surface, n_cells, <metric columns>,
    runtime_seconds``.  Levels must be strictly increasing and every metric
    nonnegative.
    """

    metric_names: tuple
    rows: list = field(default_factory=list)

    def add_row(self, level: int, h_surface: float, n_cells: int,
                metrics: Sequence[float], runtime_seconds: float) -> None:
        metrics = tuple(float(m) for m in metrics)
        if len(metrics) != len(self.metric_names):
            raise ValueError("metric count does not match the declared columns")
        self.rows.append(ConvergenceRow(int(level), float(h_surface),
                                        int(n_cells), metrics,
                                        float(runtime_seconds)))
        self.validate()

    @property
    def columns(self) -> tuple:
        return ("level", "h_surface", "n_cells") + tuple(self.metric_names) + (
            "runtime_seconds",)

    def validate(self) -> None:
        levels = [row.level for row in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        for row in self.rows:
            if any(m < 0.0 for m in row.metrics):
                raise ValueError(f"negative metric at level {row.level}")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [self._flat(row)[idx] for row in self.rows]

    @staticmethod
    def _flat(row: ConvergenceRow) -> tuple:
        return (row.level, row.h_surface, row.n_cells) + row.metrics + (
            row.runtime_seconds,)

    def to_csv(self, path) -> Path:
        self.validate()
        path = Path(path)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(v) for v in self._flat(row)])
        return path

    @classmethod
    def from_csv(cls, path) -> "ConvergenceTable":
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header[:3] != ["level", "h_surface", "n_cells"] or \
                    header[-1] != "runtime_seconds":
                raise ValueError("unrecognized convergence table header")
            table = cls(metric_names=tuple(header[3:-1]))
            for rec in reader:
                table.add_row(int(rec[0]), float(rec[1]), int(rec[2]),
                              [float(v) for v in rec[3:-1]], float(rec[-1]))
        return table
