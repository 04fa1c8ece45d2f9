"""Experiment reports: interval estimates and the CSV/JSON output contract.

The CSV schema is frozen:

    experiment,n,q,lambda,param,estimate,ci_lo,ci_hi,replicas,seed

Floats are written with repr() so a rerun with the same master seed is
byte-identical. Wall-clock time goes only to stderr at the CLI; it never
enters the report, the CSV or the sidecar, which must be deterministic.
The JSON sidecar holds the configuration echo and the tool version;
`mcd experiment NAME --config SIDECAR` reruns it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95%."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (0 <= successes <= trials):
        raise ValueError("successes outside [0, trials]")
    ph = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(ph * (1.0 - ph) / trials
                           + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


_N_BOOT = 1000


def bootstrap_ci(values, stat: str = "median",
                 seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval (95%) with a deterministic resampler."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    if stat not in ("median", "mean"):
        raise ValueError(f"stat must be median or mean, got {stat!r}")
    fn = np.median if stat == "median" else np.mean
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, values.size, size=(_N_BOOT, values.size))
    stats = fn(values[idx], axis=1)
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


@dataclass
class ReportCell:
    """One grid cell: the estimate for one (n, param) combination."""

    n: int
    param: float
    estimate: float
    ci_lo: float
    ci_hi: float
    replicas: int
    extra: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    experiment: str
    q: float
    lam: float
    master_seed: int
    cells: list[ReportCell] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def validate(self) -> None:
        for cell in self.cells:
            if cell.replicas < 1:
                raise ValueError(f"cell n={cell.n} has no replicas")
            if not (cell.ci_lo <= cell.ci_hi or math.isnan(cell.estimate)):
                raise ValueError(f"cell n={cell.n} has inverted CI")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "n", "q", "lambda", "param",
                         "estimate", "ci_lo", "ci_hi", "replicas", "seed"])
        for c in self.cells:
            writer.writerow([self.experiment, c.n, repr(float(self.q)),
                             repr(float(self.lam)), repr(float(c.param)),
                             repr(float(c.estimate)), repr(float(c.ci_lo)),
                             repr(float(c.ci_hi)), c.replicas,
                             self.master_seed])
        return buf.getvalue()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".json"


def write_report(report: ExperimentReport, path: str,
                 config_echo: dict | None = None,
                 version: str = "") -> None:
    """Emit the CSV and its JSON sidecar atomically."""
    report.validate()
    atomic_write_text(path, report.to_csv_text())
    sidecar = {"config": config_echo or {}, "version": version}
    atomic_write_text(sidecar_path(path),
                      json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
