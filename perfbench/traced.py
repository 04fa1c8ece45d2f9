"""The traced run: per-layer timings and counts, recorded from outside.

Spans (name, start, end, parent) are kept in memory around each public call
into `rng`, `model`, `dynamics`, `experiments`, `oracle` and `report`. The
replica loop of `one_step_exit` (1 worker) and the step loop of
`bimodality_scan` are re-driven here with the same streams and draw order
as the package's own workers, and each re-drive must reproduce the untraced
report exactly; a mismatch fails the operation. The untraced calls also give
the tracing overhead (traced wall over untraced wall, minus one).

One traced run covers all three workloads, so every per-layer metric is
measured on the workload that exercises its layer.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from mcd import (
    ModelParams,
    RngStream,
    a_fixed_point,
    balanced_spins,
    bimodality_scan,
    cluster_decompose,
    in_balanced_set,
    one_step_exit,
    ordered_spins,
    percolate_within_classes,
    recolor_clusters,
    replica_seed,
)
from mcd.oracle import (
    build_kernel,
    detailed_balance_violation,
    mask_partition_table,
    spectral_gap,
    stationarity_residual,
)
from mcd.report import bootstrap_ci

import workloads as wl

TRACE_EXIT_REPLICAS = 500  # per cell
TRACE_REPEATS = 3

_EXIT_LAYERS = ("rng.generator", "model.balanced_spins", "dynamics.percolate",
                "model.cluster_decompose", "dynamics.recolor",
                "model.in_balanced_set")


class Tracer:
    """In-memory span recorder. Spans nest through a stack, so a span's
    parent is the span open when it started."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return dict(out)


def _per_call_us(summary: dict, name: str) -> float:
    rec = summary[name]
    return rec["total_s"] / rec["calls"] * 1e6


def _sw_step_traced(tr: Tracer, spins, params: ModelParams, rng, counts: dict):
    """sw_step's three calls, in its order, each under a span."""
    with tr.span("dynamics.percolate"):
        omega = percolate_within_classes(spins, params.p, rng)
    with tr.span("model.cluster_decompose"):
        part = cluster_decompose(omega)
    with tr.span("dynamics.recolor"):
        new = recolor_clusters(part, params.q_int, rng)
    counts["calls"] += 1
    counts["edges"] += omega.edge_count
    counts["clusters"] += part.cluster_count
    counts["largest_frac"] += part.largest_size / params.n
    return new


def _layer_counts(counts: dict) -> dict:
    calls = counts["calls"]
    return {"edges_per_call": counts["edges"] / calls,
            "clusters_per_call": counts["clusters"] / calls,
            "largest_cluster_frac": counts["largest_frac"] / calls}


def exit_pass(tr: Tracer, seed: int) -> tuple[dict, list, dict]:
    """one_step_exit untraced at 1 worker, its replica loop re-driven under
    spans, then one_step_exit untraced at 2 workers."""
    master = wl.sample_seed(seed, 0)
    reps = TRACE_EXIT_REPLICAS
    args = (list(wl.EXIT_N), wl.LAMBDA_C3, wl.EXIT_Q, wl.EXIT_RHO, "balanced",
            reps, master)
    t0 = time.perf_counter()
    one = one_step_exit(*args, threads=1)
    wall1 = time.perf_counter() - t0

    counts = defaultdict(float)
    traced_exits = []
    t0 = time.perf_counter()
    for n in wl.EXIT_N:
        name = f"one_step_exit:balanced:n={n}"
        exits = 0
        with tr.span("experiments.cell"):
            for r in range(reps):
                with tr.span("experiments.replica"):
                    with tr.span("rng.generator"):
                        rng = RngStream(master, name, r).generator()
                    with tr.span("model.balanced_spins"):
                        spins = balanced_spins(n, wl.EXIT_Q)
                    params = ModelParams(n=n, q=float(wl.EXIT_Q), lam=wl.LAMBDA_C3)
                    new = _sw_step_traced(tr, spins, params, rng, counts)
                    with tr.span("model.in_balanced_set"):
                        exits += not in_balanced_set(new, wl.EXIT_RHO)
        traced_exits.append(exits)
    traced_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    two = one_step_exit(*args, threads=wl.EXIT_THREADS)
    wall2 = time.perf_counter() - t0

    ops = []
    for exits, cell1, cell2 in zip(traced_exits, one.cells, two.cells):
        ok, detail = wl.check_exit_cell(cell1.n, exits, reps)
        same = exits == cell1.extra["exits"] == cell2.extra["exits"]
        ops.append((f"exit n={cell1.n}", ok and same,
                    f"{detail}; traced {exits}, untraced 1 worker "
                    f"{cell1.extra['exits']}, {wl.EXIT_THREADS} workers "
                    f"{cell2.extra['exits']}"))

    s = tr.summary()
    layers_s = sum(s[name]["total_s"] for name in _EXIT_LAYERS)
    replicas = reps * len(wl.EXIT_N)
    c = _layer_counts(counts)
    suffix = ".exit_small_n"
    metrics = {
        "rng.generator_us": _per_call_us(s, "rng.generator"),
        "model.balanced_spins_us": _per_call_us(s, "model.balanced_spins"),
        "experiments.self_us": (wall1 - layers_s) / replicas * 1e6,
        "experiments.pool_efficiency": wall1 / (wl.EXIT_THREADS * wall2),
        "dynamics.percolate_us" + suffix: _per_call_us(s, "dynamics.percolate"),
        "model.cluster_decompose_us" + suffix: _per_call_us(s, "model.cluster_decompose"),
        "dynamics.recolor_us" + suffix: _per_call_us(s, "dynamics.recolor"),
        "model.in_balanced_set_us": _per_call_us(s, "model.in_balanced_set"),
        "dynamics.edges_per_call" + suffix: c["edges_per_call"],
        "model.clusters_per_call" + suffix: c["clusters_per_call"],
        "model.largest_cluster_frac" + suffix: c["largest_cluster_frac"],
        "trace.overhead_frac" + suffix: traced_wall / wall1 - 1.0,
    }
    detail = {"replicas": replicas, "untraced_wall_1_worker_s": wall1,
              f"untraced_wall_{wl.EXIT_THREADS}_workers_s": wall2,
              "traced_wall_s": traced_wall, "spans": s}
    return metrics, ops, detail


def chain_pass(tr: Tracer, seed: int) -> tuple[dict, list, dict]:
    """bimodality_scan untraced, then both chains re-driven under spans."""
    master = wl.sample_seed(seed, 0)
    n, q, lam = wl.CHAIN_N, wl.CHAIN_Q, wl.LAMBDA_C3
    burn, samples = wl.CHAIN_BURN, wl.CHAIN_SAMPLES
    t0 = time.perf_counter()
    report = bimodality_scan(n, lam, q, burn=burn, samples=samples,
                             master_seed=master)
    wall = time.perf_counter() - t0
    lo_v, hi_v = report.summary["valley"]

    counts = defaultdict(float)
    params = ModelParams(n=n, q=float(q), lam=lam)
    starts = (("balanced", lambda: balanced_spins(n, q)),
              ("ordered", lambda: ordered_spins(n, q, a_fixed_point(lam, q))))
    estimates, same = [None] * 4, True
    t0 = time.perf_counter()
    for idx, (start_name, make_start) in enumerate(starts):
        name = f"bimodality:{start_name}:n={n}"
        with tr.span("experiments.chain"):
            with tr.span("rng.generator"):
                rng = RngStream(master, name, 0).generator()
            with tr.span(f"model.{start_name}_spins"):
                spins = make_start()
            series = np.empty(samples)
            for t in range(burn + samples):
                with tr.span("experiments.step"):
                    spins = _sw_step_traced(tr, spins, params, rng, counts)
                    if t >= burn:
                        series[t - burn] = int(spins.counts.max()) / n
            with tr.span("report.bootstrap_ci"):
                ci = bootstrap_ci(series, "mean",
                                  seed=replica_seed(master, "bootstrap:" + name, 0))
        estimates[idx] = float(series.mean())
        estimates[2 + idx] = int(((series > lo_v) & (series < hi_v)).sum()) / samples
        cell = report.cells[idx]
        same &= ci == (cell.ci_lo, cell.ci_hi)
    traced_wall = time.perf_counter() - t0
    untraced = [c.estimate for c in report.cells]
    same &= estimates == untraced

    ops = [(f"chain {label}", ok and same, f"{detail}; reproduces untraced: {same}")
           for label, ok, detail in wl.check_chain_cells(estimates)]
    s = tr.summary()
    c = _layer_counts(counts)
    suffix = ".sw_chain_large_n"
    metrics = {
        "dynamics.percolate_us" + suffix: _per_call_us(s, "dynamics.percolate"),
        "model.cluster_decompose_us" + suffix: _per_call_us(s, "model.cluster_decompose"),
        "dynamics.recolor_us" + suffix: _per_call_us(s, "dynamics.recolor"),
        "dynamics.edges_per_call" + suffix: c["edges_per_call"],
        "model.clusters_per_call" + suffix: c["clusters_per_call"],
        "model.largest_cluster_frac" + suffix: c["largest_cluster_frac"],
        "report.bootstrap_ci_us": _per_call_us(s, "report.bootstrap_ci"),
        "trace.overhead_frac" + suffix: traced_wall / wall - 1.0,
    }
    detail = {"steps": 2 * (burn + samples), "untraced_wall_s": wall,
              "traced_wall_s": traced_wall, "spans": s}
    return metrics, ops, detail


def oracle_pass(tr: Tracer, seed: int) -> tuple[dict, list, dict]:
    """Partition tables from cold, then each kernel build and its checks
    under spans. Must run before anything else touches the oracle."""
    lam = wl.ORACLE_LAMBDA
    with tr.span("oracle.partition_table"):
        for n in sorted({n for _, n, _ in wl.ORACLE_KERNELS}):
            mask_partition_table(n)
    metrics, ops = {}, []
    for kind, n, q in wl.ORACLE_KERNELS:
        with tr.span(f"oracle.build_kernel.{kind}"):
            kernel = build_kernel(kind, n, q, lam)
        with tr.span(f"oracle.checks.{kind}"):
            res = stationarity_residual(kernel)
            db = detailed_balance_violation(kernel)
        with tr.span(f"oracle.spectral_gap.{kind}"):
            gap = spectral_gap(kernel)
        ok, detail = wl.check_kernel(res, db, gap)
        ops.append((f"kernel {kind}", ok, detail))
        P = kernel.P
        metrics[f"oracle.kernel_nnz.{kind}"] = int(P.nnz)
        metrics[f"oracle.kernel_bytes.{kind}"] = int(
            P.data.nbytes + P.indices.nbytes + P.indptr.nbytes)
        del kernel, P
    s = tr.summary()
    metrics["oracle.partition_table_s"] = s["oracle.partition_table"]["total_s"]
    for kind, _, _ in wl.ORACLE_KERNELS:
        for stage in ("build_kernel", "checks", "spectral_gap"):
            metrics[f"oracle.{stage}_s.{kind}"] = s[f"oracle.{stage}.{kind}"]["total_s"]
    return metrics, ops, {"lambda": lam, "spans": s}


def run(seed: int) -> tuple[dict, list, dict]:
    """The whole traced run: (per-layer metrics, operations, details).

    The exit and chain passes run TRACE_REPEATS times and each metric is
    the median over the repeats: the untraced and traced walls are taken
    one after the other, and the machine's speed drifts between them. The
    oracle pass runs once, because its partition-table time is a cold-start
    time.
    """
    metrics, ops, details = {}, [], {}
    for label, pass_fn, warm_up, repeats in (
            ("exit_small_n", exit_pass, wl.exit_warm_up, TRACE_REPEATS),
            ("sw_chain_large_n", chain_pass, wl.chain_warm_up, TRACE_REPEATS),
            ("oracle_exact", oracle_pass, None, 1)):
        if warm_up is not None:
            warm_up(seed)
        per_repeat, details[label] = [], []
        for _ in range(repeats):
            m, o, d = pass_fn(Tracer(), seed)
            per_repeat.append(m)
            ops.extend(o)
            details[label].append(d)
        metrics.update({k: statistics.median(m[k] for m in per_repeat)
                        for k in per_repeat[0]})
    return metrics, ops, details
