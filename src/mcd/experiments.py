"""Desk-scale experiments: metastable exit statistics, drift maps, cluster
tails, and critical bimodality.

Replica r of a cell (experiment name plus cell tag) draws from its own
stream, seeded by replica_seed(master_seed, cell name, r), in a fixed
order. A task is a range of consecutive replicas of one cell: its worker
gets one generator per replica, all seeded in one vectorized pass
(rng.replica_generators, which gives each the state PCG64(seed) would),
and returns one value per replica. The single-step workers
(one_step_exit, the drift maps, sm_tail, giant_concentration) work on
cluster sizes: each replica draws its graphs from its own generator (one
G(m, p) per color class for SW, one graph otherwise), reading the stream
the per-graph draws would (see the dynamics module docstring). One
components call gives the whole range's component sizes in one flat array
(dynamics.gnp_component_sizes), and the SW workers then draw each
replica's cluster colors from its generator (dynamics.sw_size_step).
They reduce sizes and counts and never build a per-vertex coloring. The
escape_time worker runs per-vertex sw_step, and cluster_tail_bound's
explores one cluster, each replica's whole draw sequence in turn.
Each of bimodality_scan's two chains (bimodality_chains) is a one-replica
cell, "bimodality:{s}:n={n}" for start s, and so one pool task whose
worker runs per-vertex sw_step; the scan takes no thread count, as its two
chains always run on two workers. Every stream sees the draws it would see
alone, so results are reproducible bit-for-bit for a fixed master seed
whatever the range sizes. All cells' tasks run on one pool per experiment
call, and values are reduced in replica order after it completes, so they
do not depend on the thread count either. Intervals are chosen in two
places only: _proportion_cell gives a proportion its Wilson interval and
_mean_cell a mean its percentile bootstrap interval (escape_time's
censored median is the one cell built by hand).

Regime notes. The ordered start needs the ordered drift fixed point, so
it raises RegimeError below lambda_s. The balanced start is built for any
parameters: the theory restricts rho and lambda for the exponential-
stability statements, but the estimator itself is well defined everywhere
(and the interesting contrast cases deliberately leave the stable regime).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analytic import RegimeError, a_fixed_point, cm_drift, sw_drift, theta_giant
from .dynamics import gnp_component_sizes, sw_size_step, sw_step
from .model import (
    ModelParams,
    SpinConfig,
    balanced_counts,
    integer_q,
    is_balanced,
    is_ordered,
    majority_counts,
)
from .report import ExperimentReport, ReportCell, bootstrap_ci, wilson_ci
from .rng import replica_generators, replica_seed


# ---------------------------------------------------------------------------
# starts and predicates

def _consecutive_spins(counts: list[int]) -> SpinConfig:
    """The coloring whose classes are consecutive vertex ranges in color
    order, the layout dynamics.sw_size_step reproduces."""
    q = len(counts)
    colors = np.repeat(np.arange(1, q + 1, dtype=np.int64), counts)
    return SpinConfig(colors=colors, q=q)


def balanced_spins(n: int, q: int) -> SpinConfig:
    return _consecutive_spins(balanced_counts(n, q))


def spins_with_majority(n: int, q: int, v1: int) -> SpinConfig:
    return _consecutive_spins(majority_counts(n, q, v1))


def ordered_spins(n: int, q: int, a_lam: float) -> SpinConfig:
    return spins_with_majority(n, q, round(a_lam * n))


# ---------------------------------------------------------------------------
# parallel plumbing

# A task holds at most this many vertices, summed over its replicas (and
# never fewer than one replica): enough to amortize the components call,
# small enough that a worker's peak memory stays below the parent's.
_BATCH_VERTICES = 200_000


def _task(args) -> list:
    worker, master, name, r0, r1, params = args
    return worker(replica_generators(master, name, r0, r1), *params)


def _run_replicas(worker, master_seed: int, cells, replicas: int,
                  threads: int) -> list[list]:
    """worker(rngs, *params) over replicas 0..replicas-1 of every cell
    (name, vertices per replica, params), in replica ranges on one pool.
    Returns each cell's values in replica order. A long chain is a
    one-replica cell, so each chain is one task."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    tasks, bounds = [], []
    for name, vertices, params in cells:
        size = max(1, _BATCH_VERTICES // vertices)
        if threads > 1:  # several ranges per worker, for load balance
            size = min(size, -(-replicas // (4 * threads)))
        bounds.append(len(tasks))
        tasks += [(worker, master_seed, name, r0, min(r0 + size, replicas),
                   params) for r0 in range(0, replicas, size)]
    bounds.append(len(tasks))
    if threads == 1 or len(tasks) == 1:
        done = [_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            done = list(pool.map(_task, tasks))
    return [[v for values in done[a:b] for v in values]
            for a, b in zip(bounds[:-1], bounds[1:])]


def _ls_slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


# ---------------------------------------------------------------------------
# report cells

def _boot_seed(master_seed: int, tag: str) -> int:
    return replica_seed(master_seed, "bootstrap:" + tag, 0)


def _proportion_cell(n, param, successes, replicas, estimate=None, **extra):
    """A cell with the Wilson interval of successes out of replicas; the
    estimate is their ratio unless given."""
    lo, hi = wilson_ci(successes, replicas)
    return ReportCell(
        n=n, param=param, ci_lo=lo, ci_hi=hi, replicas=replicas, extra=extra,
        estimate=successes / replicas if estimate is None else estimate)


def _mean_cell(n, param, values, seed, **extra):
    """A cell with the mean of values (one per replica) and its percentile
    bootstrap interval, resampled from seed."""
    lo, hi = bootstrap_ci(values, "mean", seed=seed)
    return ReportCell(n=n, param=param, estimate=float(np.mean(values)),
                      ci_lo=lo, ci_hi=hi, replicas=len(values), extra=extra)


def _drift_cell(n, x, values, seed, predicted, **extra):
    """A drift map's cell: the mean next-step fraction from x, its error
    against the predicted drift, then extra, then its standard error."""
    cell = _mean_cell(n, float(x), values, seed, predicted=predicted)
    stderr = float(np.std(values, ddof=1) / math.sqrt(cell.replicas))
    cell.extra.update(abs_error=abs(cell.estimate - predicted), **extra,
                      stderr=stderr)
    return cell


# ---------------------------------------------------------------------------
# one-step exit and escape time (Swendsen-Wang metastability proxies)

def _exited(counts, rho: float, start: str, a_lam: float):
    """Whether the count vectors (last axis) left the start's set."""
    if start == "balanced":
        return ~is_balanced(counts, rho)
    return ~is_ordered(counts, rho, a_lam)


def _exit_start(who: str, lam: float, q, rho: float, start: str):
    """An exit experiment's checked q and a_lam (0 from the balanced start)."""
    q = integer_q(q, 2, who)
    if start not in ("balanced", "ordered"):
        raise ValueError(f"start must be balanced or ordered, got {start!r}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    return q, a_fixed_point(lam, q) if start == "ordered" else 0.0


def _start_counts(n, q, start, a_lam) -> list[int]:
    return balanced_counts(n, q) if start == "balanced" \
        else majority_counts(n, q, round(a_lam * n))


def _color_counts(sizes, colors, clusters, q: int) -> np.ndarray:
    """Per-replica color counts of sw_size_step's output: row r, column c
    counts replica r's vertices of color c (column 0 stays 0)."""
    replicas = clusters.size
    replica = np.repeat(np.arange(replicas), clusters)
    counts = np.bincount(replica * (q + 1) + colors, sizes, replicas * (q + 1))
    return counts.astype(np.int64).reshape(replicas, q + 1)


def _exit_worker(rngs, n, q, lam, rho, start, a_lam) -> list:
    params = ModelParams(n=n, q=float(q), lam=lam)
    step = sw_size_step(_start_counts(n, q, start, a_lam), params.p, rngs)
    counts = _color_counts(*step, q)[:, 1:]
    return [int(e) for e in _exited(counts, rho, start, a_lam)]


def one_step_exit(n_grid, lam: float, q: int, rho: float, start: str,
                  replicas: int, master_seed: int,
                  threads: int = 1) -> ExperimentReport:
    """P(X_1 leaves the start's stability set) for one SW step, per n."""
    q, a_lam = _exit_start("one_step_exit", lam, q, rho, start)
    report = ExperimentReport("one_step_exit", float(q), lam, master_seed)
    cells = [(f"one_step_exit:{start}:n={n}", n,
              (n, q, lam, rho, start, a_lam)) for n in n_grid]
    exits = _run_replicas(_exit_worker, master_seed, cells, replicas, threads)
    for n, cell_exits in zip(n_grid, exits):
        hits = sum(cell_exits)
        report.cells.append(_proportion_cell(n, rho, hits, replicas,
                                             start=start, exits=hits))
    report.summary["log_slope"] = _ls_slope(
        list(n_grid), [math.log(max(c.estimate, 0.5 / replicas))
                       for c in report.cells]) if len(report.cells) >= 2 else None
    return report


def _escape_worker(rngs, n, q, lam, rho, start, a_lam, cap) -> list:
    params = ModelParams(n=n, q=float(q), lam=lam)
    start_spins = _consecutive_spins(_start_counts(n, q, start, a_lam))
    times = []
    for rng in rngs:
        spins = start_spins
        for t in range(1, cap + 1):
            spins, _ = sw_step(spins, params, rng)
            if _exited(spins.counts, rho, start, a_lam):
                break
        else:
            t = -1  # censored at the cap
        times.append(t)
    return times


def escape_time(n_grid, lam: float, q: int, rho: float, start: str,
                replicas: int, master_seed: int, cap: int = 10 ** 6,
                threads: int = 1) -> ExperimentReport:
    """Median number of SW steps until first exit, censored at the cap.

    A cell whose censoring fraction reaches 1/2 reports NaN (the median is
    not identified); the censoring fraction is always in the cell extras.
    The median is exactly 1 whenever P(exit at step 1) >= 1/2, however
    heavy the tail: at lambda_c, rho = 0.08 and n = 40/60/80 that
    probability is 0.847/0.800/0.727 (mcd.countlevel.escape_time_law), so
    there the slowdown shows in P(T > t), not in the median.
    """
    q, a_lam = _exit_start("escape_time", lam, q, rho, start)
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap!r}")
    report = ExperimentReport("escape_time", float(q), lam, master_seed)
    names = [f"escape_time:{start}:n={n}" for n in n_grid]
    cells = [(name, n, (n, q, lam, rho, start, a_lam, cap))
             for name, n in zip(names, n_grid)]
    times = _run_replicas(_escape_worker, master_seed, cells, replicas, threads)
    for n, name, cell_times in zip(n_grid, names, times):
        raw = np.array(cell_times, dtype=float)
        censored = float(np.mean(raw < 0))
        vals = np.where(raw < 0, np.inf, raw)
        if censored >= 0.5:
            est, lo, hi = float("nan"), float("nan"), float("nan")
        else:
            est = float(np.percentile(vals, 50, method="lower"))
            lo, hi = bootstrap_ci(vals, "median",
                                  seed=_boot_seed(master_seed, name))
        report.cells.append(ReportCell(
            n=n, param=rho, estimate=est, ci_lo=lo, ci_hi=hi,
            replicas=replicas,
            extra={"start": start, "censored_frac": censored, "cap": cap}))
    return report


# ---------------------------------------------------------------------------
# drift maps

def _sw_drift_worker(rngs, n, q, lam, z) -> list:
    step = sw_size_step(majority_counts(n, q, round(z * n)), lam / n, rngs)
    sizes, colors, clusters = step
    # each replica's largest cluster, ties to the smallest member: the
    # first maximum in ascending smallest-member order (lexsort is stable)
    replica = np.repeat(np.arange(clusters.size), clusters)
    largest = np.lexsort((-sizes, replica))[np.cumsum(clusters) - clusters]
    counts = _color_counts(*step, q)[np.arange(clusters.size), colors[largest]]
    return (counts / n).tolist()


def sw_drift_map(n: int, lam: float, q: int, z_grid, replicas: int,
                 master_seed: int, threads: int = 1) -> ExperimentReport:
    """Mean next-step fraction of the color class that receives the largest
    percolation cluster, started from majority fraction z, against the
    analytic drift.

    Given the clusters, that fraction has mean 1/q + (1 - 1/q) L1/n, L1 the
    largest cluster, so the cell mean is 1/q + (1 - 1/q) E[L1]/n
    (mcd.countlevel.sw_drift_mean). The drift F(z) is its n -> inf limit,
    reached only slowly where lam*z is in the critical window: at n = 10^4,
    z = 1/3 and lambda_c(3), E[L1] = 156.60 puts the mean 0.0104 above
    F = 1/3.
    """
    q = integer_q(q, 2, "sw_drift_map")
    report = ExperimentReport("sw_drift_map", float(q), lam, master_seed)
    for z in z_grid:
        if not (1.0 / q <= z <= 1.0):
            raise ValueError(f"z grid must lie in [1/q, 1], got {z!r}")
    names = [f"sw_drift_map:z={z!r}:n={n}" for z in z_grid]
    cells = [(name, n, (n, q, lam, z)) for name, z in zip(names, z_grid)]
    results = _run_replicas(_sw_drift_worker, master_seed, cells, replicas,
                            threads)
    for z, name, cell_vals in zip(z_grid, names, results):
        report.cells.append(_drift_cell(
            n, z, cell_vals, _boot_seed(master_seed, name), sw_drift(z, lam, q)))
    return report


def _cm_drift_worker(rngs, n, q, lam, theta) -> list:
    # the planted cluster (at least one vertex) is forced active and every
    # other cluster is a singleton, active with probability 1/q; the step
    # resamples G(m, lam/n) on the m active vertices and the rest stay
    # isolated, so the drift depends only on sizes
    g = max(round(theta * n), 1)
    blocks = [(g + int((rng.random(n - g) < 1.0 / q).sum()), rng)
              for rng in rngs]
    sizes, bounds = gnp_component_sizes(blocks, lam / n)  # no empty block
    return (np.maximum.reduceat(sizes, bounds[:-1]) / n).tolist()


def cm_drift_map(n: int, lam: float, q: float, theta_grid, replicas: int,
                 master_seed: int, threads: int = 1) -> ExperimentReport:
    """Mean largest-cluster fraction after one activation-resample step
    from a planted cluster of fraction theta (forced active, per the
    drift's conditioning), against the analytic drift."""
    if not 1 <= q < math.inf:
        raise ValueError(f"cm_drift_map needs finite q >= 1, got q={q!r}")
    report = ExperimentReport("cm_drift_map", q, lam, master_seed)
    for theta in theta_grid:
        if not (0.0 < theta <= 1.0):
            raise ValueError(f"theta grid must lie in (0, 1], got {theta!r}")
    names = [f"cm_drift_map:theta={theta!r}:n={n}" for theta in theta_grid]
    cells = [(name, n, (n, q, lam, theta))
             for name, theta in zip(names, theta_grid)]
    results = _run_replicas(_cm_drift_worker, master_seed, cells, replicas,
                            threads)
    for theta, name, cell_vals in zip(theta_grid, names, results):
        report.cells.append(_drift_cell(
            n, theta, cell_vals, _boot_seed(master_seed, name),
            cm_drift(theta, lam, q),
            empirical_drift=float(np.mean(cell_vals)) - theta))
    return report


# ---------------------------------------------------------------------------
# equilibrium cluster statistics of G(n, lam/n)

def _sm_tail_worker(rngs, n, lam, m_thr, rho) -> list:
    # |S_M|, the vertices in clusters larger than M; no block is empty, so
    # neither is a reduceat segment (which would give a[i])
    sizes, bounds = gnp_component_sizes([(n, rng) for rng in rngs], lam / n)
    s_m = np.add.reduceat(np.where(sizes > m_thr, sizes, 0), bounds[:-1])
    return (s_m >= rho * n).astype(int).tolist()


def sm_tail(n_grid, lam: float, m_threshold: int, rho: float, replicas: int,
            master_seed: int, threads: int = 1) -> ExperimentReport:
    """P(|S_M| >= rho n) under subcritical G(n, lam/n), per n.

    Cells report (hits + 1/2) / (replicas + 1): the event probability
    decays exponentially, zero-hit cells are expected, and the anchored
    estimate keeps the log-slope fit defined while staying within every
    cell's Wilson interval. Raw hits are in the extras.
    """
    if lam >= 1.0:
        raise RegimeError(f"S_M tail probes subcritical graphs; lam={lam!r} >= 1")
    if m_threshold < 0:
        raise ValueError("M must be >= 0")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    report = ExperimentReport("sm_tail", 1.0, lam, master_seed)
    cells = [(f"sm_tail:n={n}", n, (n, lam, m_threshold, rho)) for n in n_grid]
    hit_lists = _run_replicas(_sm_tail_worker, master_seed, cells, replicas,
                              threads)
    for n, cell_hits in zip(n_grid, hit_lists):
        hits = sum(cell_hits)
        est = (hits + 0.5) / (replicas + 1)
        report.cells.append(_proportion_cell(
            n, rho, hits, replicas, est, hits=hits, m_threshold=m_threshold,
            log_estimate=math.log(est)))
    report.summary["log_slope"] = _ls_slope(
        list(n_grid), [c.extra["log_estimate"] for c in report.cells]
    ) if len(report.cells) >= 2 else None
    return report


def _cluster_tail_worker(rngs, n, lam, kmax) -> list:
    p = lam / n
    sizes = []
    for rng in rngs:
        # explore the cluster of vertex 0 one vertex at a time; each
        # vertex's new neighbors among the unexplored are Binomial(unexplored, p)
        unexplored = n - 1
        frontier = 1
        size = 1
        while frontier > 0 and size <= kmax:
            kids = int(rng.binomial(unexplored, p))
            unexplored -= kids
            size += kids
            frontier += kids - 1
        sizes.append(min(size, kmax + 1))
    return sizes


def cluster_tail_bound(n: int, lam: float, k_grid, replicas: int,
                       master_seed: int, threads: int = 1) -> ExperimentReport:
    """Empirical P(|C_0| >= k) against the subcritical tail bound
    exp(-(1-lam)^2 k / 2), for each k in the grid."""
    if lam >= 1.0:
        raise RegimeError(f"cluster tail bound needs lam < 1, got {lam!r}")
    kmax = int(max(k_grid))
    cells = [(f"cluster_tail:n={n}", n, (n, lam, kmax))]
    sizes = np.array(_run_replicas(_cluster_tail_worker, master_seed, cells,
                                   replicas, threads)[0])
    report = ExperimentReport("cluster_tail_bound", 1.0, lam, master_seed)
    for k in k_grid:
        bound = math.exp(-(1.0 - lam) ** 2 * k / 2.0)
        cell = _proportion_cell(n, float(k), int((sizes >= k).sum()),
                                replicas, bound=bound)
        cell.extra["upper_ci_below_bound"] = cell.ci_hi <= bound
        report.cells.append(cell)
    return report


def _giant_worker(rngs, n, lam) -> list:
    sizes, bounds = gnp_component_sizes([(n, rng) for rng in rngs], lam / n)
    return (np.maximum.reduceat(sizes, bounds[:-1]) / n).tolist()


def giant_concentration(n: int, lam: float, epsilon: float, replicas: int,
                        master_seed: int, threads: int = 1) -> ExperimentReport:
    """P(|L_1/n - theta_lam| >= epsilon) in supercritical G(n, lam/n)."""
    if lam <= 1.0:
        raise RegimeError(f"giant concentration needs lam > 1, got {lam!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    cells = [(f"giant_concentration:n={n}", n, (n, lam))]
    fracs = np.array(_run_replicas(_giant_worker, master_seed, cells,
                                   replicas, threads)[0])
    theta = theta_giant(lam)
    outside = int((np.abs(fracs - theta) >= epsilon).sum())
    report = ExperimentReport("giant_concentration", 1.0, lam, master_seed)
    report.cells.append(_proportion_cell(
        n, epsilon, outside, replicas, theta=theta,
        mean_l1=float(fracs.mean()), outside=outside))
    return report


# ---------------------------------------------------------------------------
# critical bimodality scan

def _majority_series(n: int, q: int, lam: float, start: SpinConfig, burn: int,
                     samples: int, rng) -> np.ndarray:
    params = ModelParams(n=n, q=float(q), lam=lam)
    spins = start
    out = np.empty(samples)
    for t in range(burn + samples):
        spins, _ = sw_step(spins, params, rng)
        if t >= burn:
            out[t - burn] = int(spins.counts.max()) / n
    return out


def _chain_worker(rngs, n, q, lam, counts, burn, samples) -> list:
    start = _consecutive_spins(counts)
    return [_majority_series(n, q, lam, start, burn, samples, rng)
            for rng in rngs]


def bimodality_chains(n: int, lam: float, q: int, burn: int, samples: int,
                      master_seed: int):
    """The bimodality scan's two SW chains, as (a, valley, series): a is the
    ordered drift fixed point (1 - 1/q below lambda_s), valley the open
    interval (1/q + 0.05, a - 0.05), and series maps each start, balanced
    then ordered (majority fraction a), to its post-burn majority fractions,
    drawn from the stream "bimodality:{start}:n={n}" of master_seed.

    Each chain is a one-replica cell of _run_replicas, so the two chains
    always run as two tasks on two workers; the parameters are checked
    before any worker starts."""
    q = integer_q(q, 3, "bimodality scan")
    if burn < 0:
        raise ValueError(f"burn must be at least 0, got {burn!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    ModelParams(n=n, q=float(q), lam=lam)
    try:
        a = a_fixed_point(lam, q)
    except RegimeError:
        a = 1.0 - 1.0 / q
    starts = {"balanced": balanced_counts(n, q),
              "ordered": majority_counts(n, q, round(a * n))}
    cells = [(f"bimodality:{start}:n={n}", n,
              (n, q, lam, counts, burn, samples))
             for start, counts in starts.items()]
    values = _run_replicas(_chain_worker, master_seed, cells, 1, len(cells))
    return (a, (1.0 / q + 0.05, a - 0.05),
            {start: chain for start, (chain,) in zip(starts, values)})


def bimodality_scan(n: int, lam: float, q: int, burn: int, samples: int,
                    master_seed: int) -> ExperimentReport:
    """Largest-color-fraction statistics of the two bimodality_chains.
    There is no thread count: the two chains always run on two workers.

    Cells (all at this n): param 0 and 1 are the balanced/ordered post-burn
    sample means, bootstrapped from seeds named after their chains'
    streams; param 2 and 3 are the fractions of samples in the open valley,
    with the minimum 0.02-wide histogram bin mass inside it in the extras.
    The summary holds the valley, a (as a_ordered) and burn.

    The bootstrap (means) and Wilson (valley masses) intervals treat each
    chain's samples as independent. They are not: with integrated
    autocorrelation time tau the intervals understate the error by about
    sqrt(2 tau), and tau is 25-80 steps at n = 500 and lambda_c(3), where
    the chains cross between the phases (use batch means to compare with
    mcd.countlevel.majority_law).
    """
    a, valley, series = bimodality_chains(n, lam, q, burn, samples,
                                          master_seed)
    report = ExperimentReport("bimodality_scan", float(q), lam, master_seed)
    report.summary.update(valley=list(valley), a_ordered=a, burn=burn)
    bins = np.arange(valley[0], valley[1] + 0.02, 0.02)
    for idx, (start, vals) in enumerate(series.items()):
        tag = f"bimodality:{start}:n={n}"
        report.cells.insert(idx, _mean_cell(  # the means come first
            n, float(idx), vals, _boot_seed(master_seed, tag), start=start,
            kind="mean"))
        in_valley = int(((vals > valley[0]) & (vals < valley[1])).sum())
        hist, _ = np.histogram(vals, bins=bins)
        report.cells.append(_proportion_cell(
            n, float(2 + idx), in_valley, samples, start=start,
            kind="valley_mass",
            min_bin_mass=float(hist.min()) / samples if hist.size else 0.0))
    return report
