"""The three benchmark workloads: what one timed sample runs and how its
output is checked.

Every sample calls the public API of `mcd` exactly as a user would; nothing
inside the package is patched. A sample's inputs are a pure function of the
workload seed and the sample index, so the same seed gives the same inputs.

An operation is one report cell (the two chain workloads) or one certified
kernel (oracle_exact). It fails when it raises or when its check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mcd import bimodality_scan, one_step_exit
from mcd.oracle import (
    build_kernel,
    detailed_balance_violation,
    mask_partition_table,
    spectral_gap,
    stationarity_residual,
)

LAMBDA_C3 = 4.0 * math.log(2.0)  # lambda_c(3)

# exit_small_n: criterion 5 and the README example
EXIT_N = (200, 400, 800)
EXIT_Q = 3
EXIT_RHO = 0.08
EXIT_THREADS = 2
EXIT_REPLICAS = 2000  # per cell and sample
# exact one-step exit probabilities from the balanced start at lambda_c,
# rho = 0.08 (count-level Swendsen-Wang kernel, ROADMAP item 2)
EXIT_EXACT = {200: 0.5463, 400: 0.3606, 800: 0.1770}
EXIT_MAX_SE = 4.0

# sw_chain_large_n: two long SW chains at n = 10^5
CHAIN_N = 100_000
CHAIN_Q = 3
CHAIN_BURN = 4
CHAIN_SAMPLES = 16
CHAIN_MEAN_TOL = 0.05
CHAIN_A = 2.0 / 3.0  # a(lambda_c) for q = 3
CHAIN_VALLEY_MAX = 0.01

# oracle_exact: (kind, n, q) at criterion 2's coupling. The oracle is exact,
# so the seed changes nothing here: a seed-dependent coupling would change
# the Lanczos iteration count, and with it the cost, from seed to seed.
ORACLE_KERNELS = (("sw", 6, 4.0), ("cm", 5, 2.5), ("glauber", 6, 2.0))
ORACLE_LAMBDA = 1.0
ORACLE_STATIONARITY_MAX = 1e-10
ORACLE_DETAILED_BALANCE_MAX = 1e-12


def sample_seed(seed: int, index: int) -> int:
    """Master seed of sample `index` in a run with workload seed `seed`."""
    return seed * 100_000 + index


@dataclass
class Outcome:
    """One sample's result: work units done and one (label, ok, detail)
    entry per operation."""

    work: int
    ops: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


# ---------------------------------------------------------------------------
# checks, shared with the traced run

def check_exit_cell(n: int, exits: int, replicas: int) -> tuple[bool, str]:
    p = EXIT_EXACT[n]
    se = math.sqrt(p * (1.0 - p) / replicas)
    z = (exits / replicas - p) / se
    return abs(z) <= EXIT_MAX_SE, f"n={n}: {exits}/{replicas} vs exact {p}, z={z:+.2f}"


def check_chain_cells(estimates: list[float]) -> list[tuple[str, bool, str]]:
    bal_mean, ord_mean, bal_valley, ord_valley = estimates
    return [
        ("balanced_mean", abs(bal_mean - 1.0 / 3.0) < CHAIN_MEAN_TOL,
         f"{bal_mean:.5f} within {CHAIN_MEAN_TOL} of 1/3"),
        ("ordered_mean", abs(ord_mean - CHAIN_A) < CHAIN_MEAN_TOL,
         f"{ord_mean:.5f} within {CHAIN_MEAN_TOL} of 2/3"),
        ("balanced_valley", bal_valley < CHAIN_VALLEY_MAX,
         f"{bal_valley:.4f} < {CHAIN_VALLEY_MAX}"),
        ("ordered_valley", ord_valley < CHAIN_VALLEY_MAX,
         f"{ord_valley:.4f} < {CHAIN_VALLEY_MAX}"),
    ]


def check_kernel(res: float, db: float, gap: float) -> tuple[bool, str]:
    ok = (res < ORACLE_STATIONARITY_MAX and db < ORACLE_DETAILED_BALANCE_MAX
          and 0.0 < gap <= 1.0)
    return ok, f"residual {res:.2e}, detailed balance {db:.2e}, gap {gap:.6f}"


# ---------------------------------------------------------------------------
# samples

def exit_sample(master: int) -> Outcome:
    report = one_step_exit(list(EXIT_N), LAMBDA_C3, EXIT_Q, EXIT_RHO,
                           "balanced", EXIT_REPLICAS, master,
                           threads=EXIT_THREADS)
    out = Outcome(work=EXIT_REPLICAS * len(EXIT_N))
    for cell in report.cells:
        ok, detail = check_exit_cell(cell.n, cell.extra["exits"], cell.replicas)
        out.ops.append((f"n={cell.n}", ok, detail))
    return out


def chain_sample(master: int) -> Outcome:
    report = bimodality_scan(CHAIN_N, LAMBDA_C3, CHAIN_Q, burn=CHAIN_BURN,
                             samples=CHAIN_SAMPLES, master_seed=master)
    out = Outcome(work=2 * (CHAIN_BURN + CHAIN_SAMPLES))
    out.ops = check_chain_cells([c.estimate for c in report.cells])
    return out


def certify_kernel(kind: str, n: int, q: float, lam: float):
    """Build one exact kernel; return its stationarity residual,
    detailed-balance violation and spectral gap."""
    kernel = build_kernel(kind, n, q, lam)
    return (stationarity_residual(kernel), detailed_balance_violation(kernel),
            spectral_gap(kernel))


def oracle_sample() -> Outcome:
    out = Outcome(work=len(ORACLE_KERNELS))
    for kind, n, q in ORACLE_KERNELS:
        res, db, gap = certify_kernel(kind, n, q, ORACLE_LAMBDA)
        ok, detail = check_kernel(res, db, gap)
        out.ops.append((kind, ok, detail))
    return out


# ---------------------------------------------------------------------------
# warm-up: the first call of a fresh interpreter, which fills lazy caches
# and imports the modules the timed calls need

def exit_warm_up(seed: int) -> None:
    one_step_exit(list(EXIT_N), LAMBDA_C3, EXIT_Q, EXIT_RHO, "balanced", 4,
                  sample_seed(seed, 99_999), threads=EXIT_THREADS)


def chain_warm_up(seed: int) -> None:
    bimodality_scan(CHAIN_N, LAMBDA_C3, CHAIN_Q, burn=0, samples=1,
                    master_seed=sample_seed(seed, 99_999))


def oracle_warm_up(seed: int) -> None:
    for n in sorted({n for _, n, _ in ORACLE_KERNELS}):
        mask_partition_table(n)
    certify_kernel("glauber", 4, 2.0, ORACLE_LAMBDA)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    ops_per_sample: int
    warm_up: object  # (seed) -> None
    sample: object   # (seed, index) -> Outcome


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "exit_small_n", "replica", len(EXIT_N),
            exit_warm_up,
            lambda seed, i: exit_sample(sample_seed(seed, i))),
        Workload(
            "sw_chain_large_n", "SW step", 4,
            chain_warm_up,
            lambda seed, i: chain_sample(sample_seed(seed, i))),
        Workload(
            "oracle_exact", "certified kernel", len(ORACLE_KERNELS),
            oracle_warm_up,
            lambda seed, i: oracle_sample()),
    )
}
