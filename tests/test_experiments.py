import ast
import importlib.util
import inspect
import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcd.experiments
from scipy.stats import binom

from mcd.analytic import RegimeError, a_fixed_point, cm_drift, sw_drift
from mcd.cli import EXPERIMENTS, main
from mcd.dynamics import sw_size_step
from mcd.experiments import (
    _color_counts,
    _majority_series,
    _sw_drift_worker,
    balanced_spins,
    bimodality_chains,
    bimodality_scan,
    cluster_tail_bound,
    cm_drift_map,
    escape_time,
    giant_concentration,
    one_step_exit,
    ordered_spins,
    sm_tail,
    spins_with_majority,
    sw_drift_map,
)
from mcd.countlevel import count_grid, one_step_law
from mcd.model import ModelParams, is_ordered, majority_counts
from mcd.report import (
    ExperimentReport,
    ReportCell,
    bootstrap_ci,
    sidecar_path,
    wilson_ci,
    write_report,
)
from mcd.rng import RngStream

LAMBDA_C3 = 4 * math.log(2)


# ---------------------------------------------------------------------------
# interval helpers

@given(st.integers(0, 500), st.integers(1, 500))
@settings(max_examples=100)
def test_wilson_interval_contains_point_estimate(hits, extra):
    trials = hits + extra
    lo, hi = wilson_ci(hits, trials)
    assert 0.0 <= lo <= hits / trials <= hi <= 1.0


def test_wilson_edge_cases():
    lo, hi = wilson_ci(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_ci(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0


def test_bootstrap_ci_is_deterministic_and_covers_median():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    a = bootstrap_ci(vals, "median", seed=5)
    b = bootstrap_ci(vals, "median", seed=5)
    assert a == b
    assert a[0] <= np.median(vals) <= a[1]
    with pytest.raises(ValueError):
        bootstrap_ci(vals, "mode", seed=5)


# ---------------------------------------------------------------------------
# start configurations

@given(st.integers(2, 6), st.integers(6, 100))
@settings(max_examples=50)
def test_balanced_start_is_maximally_even(q, n):
    spins = balanced_spins(n, q)
    counts = spins.counts
    assert int(counts.sum()) == n
    assert counts.max() - counts.min() <= 1


def test_majority_start_counts():
    spins = spins_with_majority(12, 3, 8)
    assert spins.counts.tolist() == [8, 2, 2]
    spins = ordered_spins(12, 3, 2 / 3)
    assert spins.counts[0] == 8
    with pytest.raises(ValueError):
        spins_with_majority(10, 3, 11)


# ---------------------------------------------------------------------------
# experiment drivers (small instances; calibrated runs live in acceptance)

def test_one_step_exit_report_shape():
    rep = one_step_exit([30, 60], LAMBDA_C3, 3, 0.08, "balanced", 50, 7)
    rep.validate()
    assert [c.n for c in rep.cells] == [30, 60]
    for c in rep.cells:
        assert 0.0 <= c.ci_lo <= c.estimate <= c.ci_hi <= 1.0
        assert c.replicas == 50
    assert "log_slope" in rep.summary


def test_one_step_exit_ordered_needs_fixed_point():
    with pytest.raises(RegimeError):
        one_step_exit([30], 2.0, 3, 0.05, "ordered", 10, 7)
    with pytest.raises(ValueError):
        one_step_exit([30], 2.0, 3, 0.05, "sideways", 10, 7)


def test_ordered_start_exits_at_the_exact_one_step_rate():
    # the exact exit is one_step_law from majority_counts(n, 3, round(a*n))
    # summed over the count vectors outside is_ordered; each sampled count
    # of exits must lie in the Binomial central range of mass 1 - 1e-6
    a, rho, seed = a_fixed_point(LAMBDA_C3, 3), 0.08, 3203

    def exact_exit(n):
        row = one_step_law(majority_counts(n, 3, round(a * n)), LAMBDA_C3, 3)
        grid, valid = count_grid(n, 3)
        return float(row[valid & ~is_ordered(grid, rho, a)].sum())

    def in_range(hits, replicas, p):
        lo, hi = binom.interval(1 - 1e-6, replicas, p)
        return lo <= hits <= hi

    grid, replicas = [60, 120, 240], 2000
    exact = [exact_exit(n) for n in grid]
    assert [round(p, 4) for p in exact] == [0.4265, 0.2027, 0.0599]
    rep = one_step_exit(grid, LAMBDA_C3, 3, rho, "ordered", replicas, seed)
    for cell, p in zip(rep.cells, exact):
        assert cell.extra["start"] == "ordered"
        assert in_range(cell.extra["exits"], replicas, p), (cell.n, cell.extra, p)
    # a cap of 1 censors exactly the replicas still ordered after one step
    replicas = 400
    rep = escape_time([30], LAMBDA_C3, 3, rho, "ordered", replicas, seed, cap=1)
    stayed = round(rep.cells[0].extra["censored_frac"] * replicas)
    assert in_range(stayed, replicas, 1.0 - exact_exit(30))


def test_escape_time_censoring():
    # a cap of 1 censors every replica that survives its first step
    rep = escape_time([40], LAMBDA_C3, 3, 0.4, "balanced", 30, 7, cap=1)
    cell = rep.cells[0]
    assert cell.extra["censored_frac"] > 0.5
    assert math.isnan(cell.estimate)


def test_escape_time_fast_exit_regime():
    rep = escape_time([30], 3.5, 3, 0.01, "balanced", 30, 7, cap=50)
    cell = rep.cells[0]
    assert cell.extra["censored_frac"] < 0.5
    assert cell.estimate >= 1


def test_sw_drift_map_tracks_prediction_loosely():
    rep = sw_drift_map(800, LAMBDA_C3, 3, [2 / 3], 60, 11, threads=2)
    cell = rep.cells[0]
    assert cell.extra["abs_error"] < 0.05
    assert cell.ci_lo <= cell.estimate <= cell.ci_hi


def test_sw_drift_map_rejects_bad_grid():
    with pytest.raises(ValueError):
        sw_drift_map(100, 2.0, 3, [0.1], 5, 1)  # below 1/q


def test_cm_drift_map_tracks_prediction_loosely():
    rep = cm_drift_map(800, LAMBDA_C3, 3.0, [0.375], 60, 11, threads=2)
    cell = rep.cells[0]
    assert cell.extra["abs_error"] < 0.05
    assert "empirical_drift" in cell.extra


@pytest.mark.parametrize("q", [0.5, 0.0, -1.0, math.inf])
def test_cm_drift_map_rejects_q_below_one(q, monkeypatch):
    def no_replicas(*args, **kwargs):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(mcd.experiments, "_run_replicas", no_replicas)
    with pytest.raises(ValueError, match="q"):
        cm_drift_map(100, 2.0, q, [0.3], 5, 1)


def test_sm_tail_requires_subcritical():
    with pytest.raises(RegimeError):
        sm_tail([50], 1.5, 5, 0.2, 10, 7)


def test_sm_tail_anchored_estimates():
    rep = sm_tail([50, 100], 0.5, 5, 0.9, 200, 7)
    for cell in rep.cells:
        assert cell.extra["hits"] == 0  # impossible event at this rho
        assert cell.estimate == pytest.approx(0.5 / 201)
    assert rep.summary["log_slope"] == pytest.approx(0.0, abs=1e-12)


def test_cluster_tail_matches_subcritical_mean():
    # E|C_0| = 1/(1 - lam) + O(1/n) in the subcritical phase
    rep = cluster_tail_bound(4000, 0.5, [2, 5, 10], 4000, 7, threads=2)
    probs = {int(c.param): c.estimate for c in rep.cells}
    assert probs[2] > probs[5] > probs[10]
    # P(|C_0| >= 2) = 1 - P(isolated) = 1 - (1-p)^(n-1) -> 1 - e^{-lam}
    assert probs[2] == pytest.approx(-math.expm1(-0.5), abs=0.03)
    with pytest.raises(RegimeError):
        cluster_tail_bound(100, 1.2, [5], 10, 7)


def test_giant_concentration_regime_and_mean():
    rep = giant_concentration(5000, 2.0, 0.05, 40, 7, threads=2)
    cell = rep.cells[0]
    assert cell.estimate <= 0.1
    assert cell.extra["mean_l1"] == pytest.approx(cell.extra["theta"], abs=0.02)
    with pytest.raises(RegimeError):
        giant_concentration(100, 0.8, 0.01, 10, 7)


def test_bimodality_scan_cells_and_fallback():
    rep = bimodality_scan(120, 2.0, 3, burn=10, samples=40, master_seed=7)
    assert len(rep.cells) == 4
    # below lambda_s the ordered benchmark falls back to 1 - 1/q
    assert rep.summary["a_ordered"] == pytest.approx(2 / 3)
    kinds = [c.extra["kind"] for c in rep.cells]
    assert kinds == ["mean", "mean", "valley_mass", "valley_mass"]
    with pytest.raises(ValueError):
        bimodality_scan(50, 2.0, 2, burn=1, samples=5, master_seed=7)


# each experiment at a tiny size, with its cells' extras keys in order
CELL_EXTRAS = {
    "one_step_exit": (lambda: one_step_exit(
        [30, 45], LAMBDA_C3, 3, 0.08, "balanced", 20, 5),
        [["start", "exits"]] * 2),
    "escape_time": (lambda: escape_time(
        [30], LAMBDA_C3, 3, 0.08, "balanced", 10, 5, cap=20),
        [["start", "censored_frac", "cap"]]),
    "sw_drift_map": (lambda: sw_drift_map(60, LAMBDA_C3, 3, [0.4, 0.6], 10, 5),
                     [["predicted", "abs_error", "stderr"]] * 2),
    "cm_drift_map": (lambda: cm_drift_map(60, LAMBDA_C3, 3.0, [0.2, 0.5], 10, 5),
                     [["predicted", "abs_error", "empirical_drift",
                       "stderr"]] * 2),
    "sm_tail": (lambda: sm_tail([30, 45], 0.5, 3, 0.2, 40, 5),
                [["hits", "m_threshold", "log_estimate"]] * 2),
    "cluster_tail_bound": (lambda: cluster_tail_bound(60, 0.5, [1, 2, 4], 40, 5),
                           [["bound", "upper_ci_below_bound"]] * 3),
    "giant_concentration": (lambda: giant_concentration(60, 2.0, 0.05, 10, 5),
                            [["theta", "mean_l1", "outside"]]),
    "bimodality_scan": (lambda: bimodality_scan(60, LAMBDA_C3, 3, 2, 20, 5),
                        [["start", "kind"]] * 2
                        + [["start", "kind", "min_bin_mass"]] * 2),
}


@pytest.mark.parametrize("name", list(CELL_EXTRAS))
def test_report_cells_keep_their_extras(name):
    run, keys = CELL_EXTRAS[name]
    report = run()
    assert [list(c.extra) for c in report.cells] == keys
    for c in report.cells:
        x = c.extra
        successes = None  # set on every Wilson cell
        if "exits" in x or "outside" in x:
            successes = x.get("exits", x.get("outside"))
            assert c.estimate == successes / c.replicas
        if "hits" in x:  # anchored estimate, Wilson interval on raw hits
            successes = x["hits"]
            assert c.estimate == (successes + 0.5) / (c.replicas + 1)
            assert x["log_estimate"] == math.log(c.estimate)
        if "bound" in x or x.get("kind") == "valley_mass":
            successes = round(c.estimate * c.replicas)
            assert c.estimate == successes / c.replicas
        if "bound" in x:
            assert x["upper_ci_below_bound"] == (c.ci_hi <= x["bound"])
        if "predicted" in x:
            drift = sw_drift if name == "sw_drift_map" else cm_drift
            assert x["predicted"] == drift(c.param, report.lam, report.q)
            assert x["abs_error"] == abs(c.estimate - x["predicted"])
            assert x["stderr"] > 0
        if "empirical_drift" in x:
            assert x["empirical_drift"] == c.estimate - c.param
        if successes is not None:
            assert (c.ci_lo, c.ci_hi) == wilson_ci(successes, c.replicas)
        elif name != "escape_time":  # a bootstrap-mean cell
            assert c.ci_lo <= c.estimate <= c.ci_hi


def _script(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_slowdown_script_runs_with_a_single_n(capsys):
    curves = _script("slowdown_curves")
    assert curves.main(["--lambdas", "2.0", "--n-grid", "60",
                        "--replicas", "5"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    # one n gives no slope: the column reads nan
    assert len(row) == 3 and row[0] == "2.0000" and row[2] == "nan"


def test_portrait_script_refuses_q_below_three(capsys):
    portrait = _script("bimodality_portrait")
    assert portrait.main(["--n", "30", "--q", "2", "--burn", "1",
                          "--samples", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bimodality portrait needs integer q >= 3, got 2\n"


def test_portrait_draws_the_scan_chains(capsys):
    portrait = _script("bimodality_portrait")
    assert portrait.main(["--n", "300", "--burn", "5", "--samples", "40",
                          "--seed", "3"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("-- ")]
    cells = bimodality_scan(300, LAMBDA_C3, 3, 5, 40, 3).cells
    assert lines == [f"-- {start} start: mean {cells[i].estimate:.4f}, "
                     f"valley mass {cells[2 + i].estimate:.4f}"
                     for i, start in enumerate(("balanced", "ordered"))]
    assert lines == ["-- balanced start: mean 0.6613, valley mass 0.3000",
                     "-- ordered start: mean 0.5702, valley mass 0.5500"]
    # the chains come from the library, not from its private helpers
    tree = ast.parse(Path(portrait.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module.startswith("mcd")
             for alias in node.names]
    assert "bimodality_chains" in names
    assert not [name for name in names if name.startswith("_")]


def test_bimodality_chains_feed_the_scan():
    a, valley, series = bimodality_chains(120, 2.0, 3, 10, 40, 7)
    rep = bimodality_scan(120, 2.0, 3, burn=10, samples=40, master_seed=7)
    assert (a, list(valley)) == (rep.summary["a_ordered"], rep.summary["valley"])
    assert list(series) == ["balanced", "ordered"]
    assert [float(v.mean()) for v in series.values()] \
        == [c.estimate for c in rep.cells[:2]]
    for bad in (dict(burn=-1), dict(samples=0), dict(q=2)):
        kwargs = dict(n=50, lam=2.0, q=3, burn=1, samples=5, master_seed=7)
        with pytest.raises(ValueError):
            bimodality_chains(**{**kwargs, **bad})


def _count_pools(monkeypatch) -> list:
    """The keyword arguments of every pool the experiments start."""
    made = []

    class CountingPool(mcd.experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mcd.experiments, "ProcessPoolExecutor", CountingPool)
    return made


def test_bimodality_chains_run_the_scan_streams_on_one_pool(monkeypatch):
    made = _count_pools(monkeypatch)
    n, burn, samples, seed = 120, 10, 40, 11
    a, _, series = bimodality_chains(n, LAMBDA_C3, 3, burn, samples, seed)
    assert made == [{"max_workers": 2}]  # one task per chain
    assert not multiprocessing.active_children()
    starts = {"balanced": balanced_spins(n, 3),
              "ordered": ordered_spins(n, 3, a)}
    assert list(series) == list(starts)
    for start, spins in starts.items():
        rng = RngStream(seed, f"bimodality:{start}:n={n}").generator()
        assert np.array_equal(series[start], _majority_series(
            n, 3, LAMBDA_C3, spins, burn, samples, rng))


# per experiment: its arguments besides n, lam, master_seed and threads,
# a lam its regime takes, and the name of its grid, if any
CHECKED = {
    "one_step_exit": (dict(q=3, rho=0.08, start="balanced", replicas=5),
                      2.0, "n"),
    "escape_time": (dict(q=3, rho=0.08, start="balanced", replicas=5, cap=5),
                    2.0, "n"),
    "sw_drift_map": (dict(q=3, z_grid=[0.5], replicas=5), 2.0, "z"),
    "cm_drift_map": (dict(q=2.0, theta_grid=[0.5], replicas=5), 2.0, "theta"),
    "sm_tail": (dict(m_threshold=5, rho=0.3, replicas=5), 0.5, "n"),
    "cluster_tail_bound": (dict(k_grid=[2, 4], replicas=5), 0.5, "k"),
    "giant_concentration": (dict(epsilon=0.05, replicas=5), 2.0, None),
    "bimodality_scan": (dict(q=3, burn=1, samples=2), 2.0, None),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_parameters_are_checked_before_any_worker(name, monkeypatch):
    # every experiment refuses what ModelParams refuses, and an empty
    # grid, with two threads and before any task runs
    def no_task(*args, **kwargs):
        raise AssertionError("a task ran or a worker pool was started")

    monkeypatch.setattr(mcd.experiments, "_task", no_task)
    monkeypatch.setattr(mcd.experiments, "ProcessPoolExecutor", no_task)
    experiment = EXPERIMENTS[name][0]
    takes = inspect.signature(experiment).parameters
    kwargs, lam, grid = CHECKED[name]
    kwargs = {**kwargs, "master_seed": 1,
              **({"threads": 2} if "threads" in takes else {})}

    def refusal(n, lam, **changed) -> str:
        n_arg = {"n_grid": [n]} if "n_grid" in takes else {"n": n}
        with pytest.raises(ValueError) as err:
            experiment(**{**n_arg, "lam": lam, **kwargs, **changed})
        return str(err.value)

    for n in (0, -5, 200.0):
        assert refusal(n, lam) == f"n must be a positive integer, got {n!r}"
    # sm_tail and cluster_tail_bound take lam < 1 only, so never lam >= n,
    # and giant_concentration takes lam > 1 only, so never lam <= 0
    bad = [] if lam < 1 else [(3, 3.0), (3, 4.0)]
    if name != "giant_concentration":
        bad += [(10, 0.0), (10, -1.0)]
    for n, bad_lam in bad:
        assert refusal(n, bad_lam) == f"lam must lie in (0, n), got {bad_lam!r}"
    if grid is not None:
        empty = {"n_grid": []} if grid == "n" else {f"{grid}_grid": []}
        assert refusal(10, lam, **empty) == f"{grid} grid must not be empty"


@pytest.mark.parametrize("experiment,args", [
    (one_step_exit, ([200], LAMBDA_C3, 3, 0.08, "balanced", 5, 1)),
    (sm_tail, ([40], 0.5, 5, 0.3, 100, 5))])
def test_a_single_n_has_no_log_slope(experiment, args):
    assert experiment(*args).summary["log_slope"] is None


def _replica_slices(clusters):
    bounds = np.concatenate([[0], np.cumsum(clusters)])
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@given(st.lists(st.integers(0, 6), min_size=2, max_size=5),
       st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example([1, 0], 3, 0.5, 0)  # one cluster per replica: a color stays empty
@example([0, 0, 0], 2, 0.5, 0)  # replicas without a cluster
@settings(max_examples=60, deadline=None)
def test_color_counts_match_each_replica(counts, replicas, p, seed):
    # small classes and up to five colors, so many replicas leave a color
    # without a cluster, which must count 0
    rngs = [np.random.default_rng([seed, r]) for r in range(replicas)]
    sizes, colors, clusters = sw_size_step(counts, p, rngs)
    q = len(counts)
    got = _color_counts(sizes, colors, clusters, q)
    assert got.shape == (replicas, q + 1) and got.dtype == np.int64
    for row, r in zip(got, _replica_slices(clusters)):
        assert np.array_equal(row, np.bincount(colors[r], sizes[r], q + 1))


@pytest.mark.parametrize("n,q,lam,z", [(12, 3, 6.0, 0.5), (40, 4, 3.0, 0.25),
                                       (200, 3, LAMBDA_C3, 0.6)])
def test_sw_drift_worker_matches_per_replica_loop(n, q, lam, z):
    # the per-replica loop it replaced; small n makes tied largest clusters
    # common, and ties go to the smallest member
    got = _sw_drift_worker([np.random.default_rng([n, r]) for r in range(50)],
                           ModelParams(n, float(q), lam), z)
    sizes, colors, clusters = sw_size_step(
        majority_counts(n, q, round(z * n)), lam / n,
        [np.random.default_rng([n, r]) for r in range(50)])
    want = []
    for r in _replica_slices(clusters):
        color = colors[r][np.argmax(sizes[r])]
        want.append(int(sizes[r][colors[r] == color].sum()) / n)
    assert got == want


def test_thread_count_does_not_change_results():
    a = one_step_exit([40], LAMBDA_C3, 3, 0.08, "balanced", 60, 99, threads=1)
    b = one_step_exit([40], LAMBDA_C3, 3, 0.08, "balanced", 60, 99, threads=3)
    assert a.to_csv_text() == b.to_csv_text()


def test_one_pool_per_experiment(monkeypatch):
    made = _count_pools(monkeypatch)
    two = one_step_exit([30, 40, 50], LAMBDA_C3, 3, 0.08, "balanced", 40, 7,
                        threads=2)
    assert len(made) == 1
    one = one_step_exit([30, 40, 50], LAMBDA_C3, 3, 0.08, "balanced", 40, 7)
    assert len(made) == 1  # one thread runs inline
    assert one.to_csv_text() == two.to_csv_text()


# every experiment that runs replicas, with a grid of two cells where it
# takes one: (function, args before replicas, n, kwargs after the seed)
REPLICATED = {
    "one_step_exit": (one_step_exit, ([30, 45], LAMBDA_C3, 3, 0.08,
                                      "balanced"), {}),
    "escape_time": (escape_time, ([30, 45], LAMBDA_C3, 3, 0.08, "balanced"),
                    {"cap": 40}),
    "sw_drift_map": (sw_drift_map, (60, LAMBDA_C3, 3, [0.4, 0.6]), {}),
    "cm_drift_map": (cm_drift_map, (60, LAMBDA_C3, 3.0, [0.2, 0.5]), {}),
    "sm_tail": (sm_tail, ([30, 45], 0.5, 3, 0.2), {}),
    "cluster_tail_bound": (cluster_tail_bound, (60, 0.5, [2, 4]), {}),
    "giant_concentration": (giant_concentration, (60, 2.0, 0.05), {}),
}


@pytest.mark.parametrize("name", list(REPLICATED))
def test_range_size_does_not_change_results(name, monkeypatch):
    run, args, kwargs = REPLICATED[name]
    whole = run(*args, 23, 5, **kwargs).to_csv_text()
    # ranges of 1..4 replicas, so 23 replicas end on a partial range
    for budget in (1, 100, 200, 250):
        monkeypatch.setattr(mcd.experiments, "_BATCH_VERTICES", budget)
        assert run(*args, 23, 5, **kwargs).to_csv_text() == whole


@pytest.mark.parametrize("name", list(REPLICATED))
def test_replica_and_thread_counts_are_validated(name):
    run, args, kwargs = REPLICATED[name]
    for replicas in (0, -2):
        with pytest.raises(ValueError, match="replicas"):
            run(*args, replicas, 5, **kwargs)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            run(*args, 4, 5, **kwargs, threads=threads)


def test_escape_time_rejects_a_cap_below_one():
    for cap in (0, -2):
        with pytest.raises(ValueError, match="cap"):
            escape_time([30], LAMBDA_C3, 3, 0.08, "balanced", 5, 7, cap=cap)


# ---------------------------------------------------------------------------
# report serialization

def _tiny_report():
    rep = ExperimentReport("one_step_exit", 3.0, 1.5, 42)
    rep.cells.append(ReportCell(n=10, param=0.1, estimate=0.5,
                                ci_lo=0.4, ci_hi=0.6, replicas=20))
    return rep


def test_csv_schema_is_frozen():
    text = _tiny_report().to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "experiment,n,q,lambda,param,estimate,ci_lo,ci_hi,replicas,seed"
    assert lines[1] == "one_step_exit,10,3.0,1.5,0.1,0.5,0.4,0.6,20,42"


def test_write_report_and_sidecar(tmp_path):
    path = str(tmp_path / "out.csv")
    write_report(_tiny_report(), path, {"experiment": "one_step_exit"}, "0.1.0")
    assert sidecar_path(path) == str(tmp_path / "out.json")
    side = json.loads((tmp_path / "out.json").read_text())
    assert side["version"] == "0.1.0"
    assert side["config"]["experiment"] == "one_step_exit"
    # no wall-clock or other nondeterministic fields in result files
    flat = json.dumps(side)
    assert "wall" not in flat and "time" not in flat


def test_report_validation_rejects_bad_interval():
    rep = _tiny_report()
    rep.cells[0] = ReportCell(n=10, param=0.1, estimate=0.5,
                              ci_lo=0.6, ci_hi=0.4, replicas=20)
    with pytest.raises(ValueError):
        rep.validate()
