#!/usr/bin/env python3
"""Benchmark of the mcd package, measured from outside through its public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exit_small_n --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's timed samples run for about --seconds seconds
and the end-to-end metrics are reported: work_per_s, cpu_ms_per_work,
peak_rss_mb and setup_s (medians, with quartiles and sample counts on the
lines above the result), plus fail_frac, which the result line carries as
`failed` / `attempted`. With --trace 1 the traced run (traced.py) reports
the per-layer metrics instead. The metric names and units are the ones in
BENCHMARK.json; a mismatch is an error.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (machine, versions, git
revision, samples, counts, spans) goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json in the checkout.

The package is imported from src/ of the checkout and nowhere else; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

OUT_OF_SCOPE = [
    "Tier-1 suite wall time: one run takes about 94 s, too long to repeat "
    "inside a benchmark run.",
    "Acceptance-clause values (ROADMAP item 1): exposing them needs test "
    "edits, which the benchmark does not make.",
    "An in-program trace (mcd.trace, a --trace option of the CLI): spans "
    "here are recorded from outside, around public calls.",
]


def _now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "mcd" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'mcd'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mcd
    if Path(mcd.__file__).resolve().parent != (SRC / "mcd").resolve():
        _die(f"imported mcd from {mcd.__file__}, not from {SRC}")
    return mcd


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}


def _read_text(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine_record() -> dict:
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
           "caches": {}, "mem_total_kb": None, "platform": platform.platform()}
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            rec["cpu_model"] = line.split(":", 1)[1].strip()
            break
    for line in (_read_text("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            rec["mem_total_kb"] = int(line.split()[1])
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read_text(f"{base}/{index}/level")
        kind = _read_text(f"{base}/{index}/type")
        size = _read_text(f"{base}/{index}/size")
        if level and kind and size and kind.strip() != "Instruction":
            rec["caches"][f"L{level.strip()}"] = size.strip()
    return rec


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, warm up, report when
    the first timed call could start."""
    _import_package()
    import workloads
    workloads.WORKLOADS[workload].warm_up(seed)
    print(repr(_now()))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter to the end of its
    warm-up call, once per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        launched = _now()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.split()[-1]) - launched)
    return times


def run_timed(work, seed: int, seconds: float):
    """Timed samples until the next one would overrun `seconds`. Returns
    (per-sample records, attempted ops, failed ops, op log)."""
    samples, log = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    index = 0
    while True:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            outcome = work.sample(seed, index)
        except Exception:
            wall = time.perf_counter() - t0
            attempted += work.ops_per_sample
            failed += work.ops_per_sample
            log.append({"sample": index, "error": traceback.format_exc()})
            print(log[-1]["error"], file=sys.stderr)
        else:
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            attempted += len(outcome.ops)
            failed += outcome.failed
            samples.append({"index": index, "work": outcome.work,
                            "wall_s": wall, "cpu_s": cpu})
            for label, ok, detail in outcome.ops:
                log.append({"sample": index, "op": label, "ok": ok,
                            "detail": detail})
                if not ok:
                    print(f"check failed: sample {index} {label}: {detail}",
                          file=sys.stderr)
        index += 1
        if time.perf_counter() - t_start + wall > seconds:
            return samples, attempted, failed, log


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = benchmark_spec()
    mcd = _import_package()
    import numpy
    import scipy
    import workloads
    known = [w["name"] for w in spec["workloads"] if w["name"] in workloads.WORKLOADS]
    if args.workload not in known:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(known)}")
    work = workloads.WORKLOADS[args.workload]

    record = {"workload": work.name, "work_unit": work.work_unit,
              "why": {w["name"]: w["why"] for w in spec["workloads"]},
              "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "versions": {
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mcd": mcd.__version__},
              "git_revision": git_revision(), "out_of_scope": OUT_OF_SCOPE}
    result = {"record": record}

    if args.trace:
        import traced
        values, ops, details = traced.run(args.seed)
        specs = spec["per_layer"]
        attempted = len(ops)
        failed = sum(1 for _, ok, _ in ops if not ok)
        result["ops"] = [{"op": label, "ok": ok, "detail": d}
                         for label, ok, d in ops]
        result["details"] = details
        result["exact_counts"] = {
            m["name"]: {"value": values[m["name"]],
                        "kind": "count" if m["unit"] == "count" else "computed"}
            for m in specs
            if m["unit"] in ("count", "bytes", "frac") and m["name"] in values}
        for label, ok, d in ops:
            if not ok:
                print(f"check failed: {label}: {d}", file=sys.stderr)
    else:
        setup = measure_setup(work.name, args.seed)
        work.warm_up(args.seed)
        samples, attempted, failed, log = run_timed(work, args.seed,
                                                    args.seconds)
        specs = spec["end_to_end"]
        result["samples"] = samples
        result["ops"] = log
        stats = {"setup_s": _stats(setup),
                 "peak_rss_mb": _stats([_peak_rss_mb()])}
        if samples:
            stats["work_per_s"] = _stats([s["work"] / s["wall_s"] for s in samples])
            stats["cpu_ms_per_work"] = _stats(
                [s["cpu_s"] * 1e3 / s["work"] for s in samples])
        result["end_to_end"] = stats
        values = {name: st["median"] for name, st in stats.items()}

    units = {m["name"]: m["unit"] for m in specs}
    complete = bool(values) and set(values) == set(units)
    if not complete and values:
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json "
              f"lists {sorted(units)}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    correct = complete and failed == 0
    result.update(correct=correct, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted if attempted else 1.0,
                  metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=float) + "\n")

    print(f"{work.name} seed={args.seed} trace={args.trace} "
          f"(work unit: {work.work_unit}) -> {out_path.relative_to(ROOT)}")
    for name in units:
        if name not in values:
            continue
        st = result.get("end_to_end", {}).get(name)
        spread = (f"  [q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['samples']}]"
                  if st else "")
        print(f"  {name:44s} {values[name]:>14.6g} {units[name]}{spread}")
    print(f"  {'fail_frac':44s} {result['fail_frac']:>14.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
