"""Command line interface.

Five subcommands:

  mcd critical-points --q 3
  mcd drift --q 3 --lambda 2.7725887 --grid 0.34:0.70:0.02 [--fixed-points]
  mcd simulate --kind sw --n 1000 --q 3 --lambda 2.7725887 --steps 200
  mcd experiment one_step_exit --n 200:800:200 --q 3 --lambda 2.7725887 ...
  mcd oracle stationarity --kind glauber --n 4 --q 2 --lambda 1

Each subcommand, experiment and oracle check reads its options, their
order and their defaults from its function's signature, by one set of
rules; an option without a default is required. Conventions shared by all
subcommands: exactly one of --lambda/--beta fixes the edge intensity (beta
is converted through lam = n(1 - exp(-beta/n)) and therefore needs a
single n); grids are written start:stop:step, a comma list, or a single
number; --n is a grid only where the function takes n_grid, else one value
(a one-element list counts as one); --config names a flat JSON object
whose keys are the long flag names, or the JSON sidecar of an experiment
result, with explicit flags taking precedence; a number option's value is
a JSON number, never a bool or a string, and an integer option's is
integral (5.0, not 5.7); an option the subcommand, experiment or oracle
check does not take is an error, whether given as a flag or a config key;
the master seed defaults to the MCD_SEED environment variable.
Exit codes: 0 success or check passed, 1 usage error, 2 oracle check
failed, 3 parameter regime unsupported. Wall-clock timings go to stderr,
never into result files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import time
from typing import Callable

from . import __version__
from .analytic import (
    RegimeError,
    a_fixed_point,
    cm_drift,
    critical_points,
    drift_fixed_points,
    sw_drift,
)
from .dynamics import run_chain, sample_gnp
from .experiments import (
    balanced_spins,
    bimodality_scan,
    cluster_tail_bound,
    cm_drift_map,
    escape_time,
    giant_concentration,
    one_step_exit,
    ordered_spins,
    sm_tail,
    sw_drift_map,
)
from .model import EdgeConfig, ModelParams, SpinConfig, integer_q
from .oracle import (
    bgj_coloring_check,
    build_kernel,
    detailed_balance_violation,
    dump_kernel_csv,
    es_coupling_check,
    iterated_coloring_check,
    min_conductance,
    mixing_time_exact,
    spectral_gap,
    stationarity_residual,
)
from .report import atomic_write_text, write_report
from .rng import RngStream


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # failed oracle checks, so route everything through CliError
    def error(self, message):
        raise CliError(1, f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# option plumbing

def _number(value, integral: bool = False):
    """The one rule for a number option: a JSON number, not a bool, and
    integral for an integer option (5.0 passes as 5, 5.7 fails)."""
    want = "an integer" if integral else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected {want}, got {value!r}")
    if integral and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"expected {want}, got {value!r}")
    return int(value) if integral else float(value)


def _parse_grid(value, kind: str = "float") -> list:
    """A grid of _number values, from text, a number or a list."""
    if isinstance(value, list):
        vals = value
    elif isinstance(value, str):
        s = value.strip()
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad grid {s!r}, expected start:stop:step")
            a, b, h = (float(x) for x in parts)
            if h <= 0 or b < a:
                raise ValueError(f"bad grid {s!r}: need step > 0, stop >= start")
            count = int(math.floor((b - a) / h + 1e-9)) + 1
            vals = [a + i * h for i in range(count)]
        else:
            vals = [float(x) for x in s.split(",")]
    else:
        vals = [value]
    return [_number(v, kind == "int") for v in vals]


def _flag(dest: str) -> str:
    return "--" + ("lambda" if dest == "lam" else dest.replace("_", "-"))


def _load_config(ns: argparse.Namespace) -> dict:
    """Options from --config: a flat flag-named object, or a result sidecar
    (its "config" object), whose command and experiment must match."""
    if not ns.config:
        return {}
    with open(ns.config) as fh:
        loaded = json.load(fh)
    if isinstance(loaded, dict) and isinstance(loaded.get("config"), dict):
        loaded = loaded["config"]
    if not isinstance(loaded, dict):
        raise CliError(1, "--config must contain a flat JSON object")
    cfg = {}
    for key, val in loaded.items():
        dest = "lam" if key == "lambda" else str(key).replace("-", "_")
        cfg[dest] = val
    for key, want in (("command", ns.command),
                      ("experiment", getattr(ns, "name", None))):
        got = cfg.pop(key, want)
        if got != want:
            raise CliError(1, f"--config holds {key} {got!r}, not {want!r}")
    return cfg


_POSITIONALS = ("func", "config", "command", "name", "check")


def _merged_options(ns: argparse.Namespace, allowed, who: str) -> dict:
    """Config-file values overridden by anything given on the command line,
    without the ones left null.

    An option outside `allowed` is an error, so a typo or an option the
    run would ignore never passes silently."""
    given = {k: v for k, v in vars(ns).items() if k not in _POSITIONALS}
    opts = _load_config(ns)
    opts.update((k, v) for k, v in given.items() if v is not None)
    unused = sorted(set(opts) - set(allowed))
    if unused:
        raise CliError(1, f"{who} does not take "
                          + ", ".join(_flag(k) for k in unused))
    return {k: v for k, v in opts.items() if v is not None}


def _convert(key: str, value):
    """An option's value, from a flag's text or a config file's JSON: a
    grid is parsed, a typed option must pass _number, and a switch must be
    a bool and any other option a str, so "false" and "5" are refused."""
    if key == "grid":
        return _parse_grid(value)
    conv = _OPTIONS[key].get("type", bool if "action" in _OPTIONS[key] else str)
    if conv in (bool, str) and not isinstance(value, conv):
        raise TypeError(f"expected a {conv.__name__}, got {value!r}")
    return _number(value, conv is int) if conv in (int, float) else value


def _resolve_lambda(opts: dict, n_values: list[int] | None) -> float:
    lam, beta = opts.get("lam"), opts.get("beta")
    if (lam is None) == (beta is None):
        raise CliError(1, "exactly one of --lambda / --beta is required")
    if beta is not None:
        if not n_values or len(n_values) != 1:
            raise CliError(1, "--beta conversion needs a single --n")
        lam = -n_values[0] * math.expm1(-_number(beta) / n_values[0])
    lam = _number(lam)
    if not 0 < lam < math.inf:
        raise CliError(1, f"edge intensity must be finite and > 0, got {lam!r}")
    return lam


_REQUIRED = inspect.Parameter.empty


def _options(func: Callable, defaults: dict | None = None) -> dict:
    """func's parameters, each mapped to (its option's dest, its default):
    master_seed is seed, n_grid is n and any other *_grid is grid; the
    default comes from defaults, else the signature, else it is _REQUIRED."""
    defaults = defaults or {}
    options = {}
    for name, par in inspect.signature(func).parameters.items():
        dest = ("seed" if name == "master_seed" else "n" if name == "n_grid"
                else "grid" if name.endswith("_grid") else name)
        options[name] = (dest, defaults.get(dest, par.default))
    return options


def _dests(func: Callable) -> list[str]:
    """The options a function takes, with beta beside lam."""
    return [d for dest, _ in _options(func).values()
            for d in (("lam", "beta") if dest == "lam" else (dest,))]


def _arguments(func: Callable, ns: argparse.Namespace,
               defaults: dict | None = None, extra=()) -> dict:
    """func's keyword arguments from the options of ns, read by _options:
    an option not given takes its default or is required; --n is an
    integer grid for n_grid and a single integer for any other parameter;
    lam comes from --lambda or --beta; seed falls back to MCD_SEED. The
    options in extra are allowed and converted too, with no default. A
    value that does not convert is a usage error naming its option."""
    who = getattr(ns, "name", getattr(ns, "check", ns.command))
    opts = _merged_options(ns, [*_dests(func), *extra], who)
    args, dest = {}, "n"
    try:
        n = None if opts.get("n") is None else _parse_grid(opts["n"], "int")
        for name, (dest, default) in [*_options(func, defaults).items(),
                                      *((key, (key, None)) for key in extra)]:
            value = opts.get(dest, default)
            if dest == "seed" and dest not in opts:
                value = int(os.environ.get("MCD_SEED", "0"))
            if dest == "lam":
                value = _resolve_lambda(opts, n)
            elif value is _REQUIRED:
                raise CliError(1, f"{_flag(dest)} is required")
            elif dest == "n" and value is not None:
                if name != "n_grid" and len(n) != 1:
                    raise CliError(1, f"{who} takes a single --n")
                value = n if name == "n_grid" else n[0]
            elif value is not None:
                value = _convert(dest, value)
            args[name] = value
    except (TypeError, ValueError, OverflowError) as err:
        flag = "--lambda/--beta" if dest == "lam" else _flag(dest)
        raise CliError(1, f"{flag}: {err}") from None
    return args


def _invoke(handler: Callable, ns: argparse.Namespace) -> int:
    return handler(**_arguments(handler, ns))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_critical_points(q) -> int:
    cp = critical_points(q)
    print(json.dumps(dataclasses.asdict(cp), indent=2, sort_keys=True))
    return 0


def _cmd_drift(q, lam, n=None, grid="0.0:1.0:0.02", fixed_points=None,
               out=None) -> int:
    """n serves only to convert --beta."""
    critical_points(q)  # refuses q < 1 and non-finite q
    if fixed_points:
        fp = drift_fixed_points(lam, q)
        print(json.dumps(dataclasses.asdict(fp), indent=2, sort_keys=True))
        return 0
    lines = ["z,F,f,g"]
    for z in grid:
        fz = sw_drift(z, lam, q) if z >= 1.0 / q else float("nan")
        cz = cm_drift(z, lam, q)
        lines.append(f"{z!r},{fz!r},{cz!r},{cz - z!r}")
    _write_table(lines, out)
    return 0


def _write_table(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        atomic_write_text(out, text)
        print(out)
    else:
        sys.stdout.write(text)


# The starts of `mcd simulate`: kind -> init -> the state it builds from
# (n, q, lam, rng), where q is an int for sw. A kind's first init is its
# default.
SIMULATE_STARTS = {
    "sw": {
        "balanced": lambda n, q, lam, rng: balanced_spins(n, q),
        "ordered": lambda n, q, lam, rng: ordered_spins(
            n, q, a_fixed_point(lam, q)),
        "random": lambda n, q, lam, rng: SpinConfig(
            rng.integers(1, q + 1, n), q),
    },
    **dict.fromkeys(("cm", "glauber"), {
        "empty": lambda n, q, lam, rng: EdgeConfig.empty(n),
        "gnp": lambda n, q, lam, rng: sample_gnp(n, lam / n, rng),
    }),
}


def _cmd_simulate(n, q, lam, kind="sw", steps=100, observe_every=1,
                  init=None, m_threshold=None, seed=None, out=None) -> int:
    starts = _registered(SIMULATE_STARTS, kind, "--kind")
    q = integer_q(q, 2, "sw") if kind == "sw" else q
    params = ModelParams(n=n, q=float(q), lam=lam)
    if init is None:
        init = next(iter(starts))
    start = _registered(starts, init, f"{kind} --init")
    rng = RngStream(seed, f"simulate:{kind}", 0).generator()
    state = start(n, q, lam, rng)
    t0 = time.perf_counter()
    traj = run_chain(kind, state, params, steps, rng,
                     observe_every=observe_every, m_threshold=m_threshold)
    lines = ["step,l1_frac,sm_frac,edge_count,counts"]
    for rec in traj.records:
        counts = "|".join(str(c) for c in rec.counts_sorted) \
            if rec.counts_sorted is not None else ""
        lines.append(f"{rec.step},{rec.l1_frac!r},{rec.sm_frac!r},"
                     f"{rec.edge_count},{counts}")
    _write_table(lines, out)
    print(f"wall clock: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


# The registries. `mcd experiment NAME` runs a function of mcd.experiments
# and `mcd oracle CHECK` a _check_* function below, on the options read
# from the function's signature by the rules of _arguments; an experiment
# that takes n_grid takes an --n grid, any other a single --n. An
# experiment's entry holds only the defaults the library leaves to its
# caller.
EXPERIMENTS = {
    "one_step_exit": (one_step_exit,
                      dict(rho=0.08, start="balanced", replicas=500)),
    "escape_time": (escape_time,
                    dict(rho=0.08, start="balanced", replicas=200)),
    "sw_drift_map": (sw_drift_map, dict(replicas=200)),
    "cm_drift_map": (cm_drift_map, dict(q=1.0, replicas=200)),
    "sm_tail": (sm_tail, dict(m_threshold=20, rho=0.2, replicas=50000)),
    "cluster_tail_bound": (cluster_tail_bound,
                           dict(grid="20:60:20", replicas=100000)),
    "giant_concentration": (giant_concentration,
                            dict(epsilon=0.01, replicas=100)),
    "bimodality_scan": (bimodality_scan, dict(burn=200, samples=1000)),
}


def _registered(table: dict, key: str, what: str):
    if key not in table:
        raise CliError(1, f"unknown {what} {key!r}; choose from "
                          + ", ".join(table))
    return table[key]


def _cmd_experiment(ns) -> int:
    run, defaults = _registered(EXPERIMENTS, ns.name, "experiment")
    args = _arguments(run, ns, defaults, ("out",))
    out = args.pop("out") or f"mcd_{ns.name}.csv"
    config = {"command": "experiment", "experiment": ns.name, "out": out}
    for name, (dest, _) in _options(run, defaults).items():
        config["lambda" if dest == "lam" else dest] = args[name]
    if "n_grid" not in args:
        config["n"] = [config["n"]]
    t0 = time.perf_counter()
    report = run(**args)
    write_report(report, out, config, __version__)
    print(out)
    print(f"wall clock: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def _check_stationarity(n, q, lam, kind="glauber", tol=1e-10) -> int:
    return _verdict("stationarity residual",
                    stationarity_residual(build_kernel(kind, n, q, lam)), tol)


def _check_detailed_balance(n, q, lam, kind="glauber", tol=1e-12) -> int:
    return _verdict("detailed balance violation",
                    detailed_balance_violation(build_kernel(kind, n, q, lam)), tol)


def _check_gap(n, q, lam, kind="glauber") -> int:
    print(f"spectral gap = {spectral_gap(build_kernel(kind, n, q, lam))!r}")
    return 0


def _check_mixing(n, q, lam, kind="glauber") -> int:
    kernel = build_kernel(kind, n, q, lam)
    gap = spectral_gap(kernel)
    tmix = mixing_time_exact(kernel)
    pi_min = float(kernel.measure.probs.min())
    lo = 1.0 / gap - 1.0
    hi = math.log(2.0 * math.e / pi_min) / gap
    ok = lo <= tmix <= hi
    print(f"t_mix = {tmix}, bounds [{lo!r}, {hi!r}]: "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 2


def _check_cheeger(n, q, lam, kind="glauber") -> int:
    kernel = build_kernel(kind, n, q, lam)
    gap = spectral_gap(kernel)
    phi, label = min_conductance(kernel)
    lower_ok = phi * phi / 2.0 <= gap + 1e-12
    upper_ok = gap <= phi + 1e-12
    ok = lower_ok and upper_ok
    print(f"cheeger ({label}): phi = {phi!r}, gap = {gap!r}, "
          f"phi^2/2 <= gap: {lower_ok}, gap <= phi: {upper_ok}: "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 2


def _check_dump(n, q, lam, kind="glauber", out=None) -> int:
    out = out or f"mcd_kernel_{kind}_n{n}.csv"
    dump_kernel_csv(build_kernel(kind, n, q, lam), out)
    print(out)
    return 0


def _check_bgj(n, q, lam, alpha=1.0 / 3.0, tol=1e-10) -> int:
    return _verdict("bgj restriction total variation",
                    bgj_coloring_check(n, lam, q, alpha), tol)


def _check_iterated_coloring(n, q, lam, tol=1e-10) -> int:
    return _verdict("iterated coloring deviation",
                    iterated_coloring_check(n, lam, q), tol)


def _check_es_coupling(n, q, lam, tol=1e-10) -> int:
    dev = max(es_coupling_check(n, lam, q))
    return _verdict("edge/spin coupling deviation", dev, tol)


ORACLE_CHECKS = {
    "stationarity": _check_stationarity,
    "detailed-balance": _check_detailed_balance,
    "gap": _check_gap,
    "mixing": _check_mixing,
    "cheeger": _check_cheeger,
    "dump": _check_dump,
    "bgj": _check_bgj,
    "iterated-coloring": _check_iterated_coloring,
    "es-coupling": _check_es_coupling,
}


def _cmd_oracle(ns) -> int:
    return _invoke(_registered(ORACLE_CHECKS, ns.check, "oracle check"), ns)


def _verdict(label: str, value: float, tol: float) -> int:
    value = float(value)
    ok = value <= tol
    print(f"{label} = {value!r} (tolerance {tol!r}): "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser assembly

_OPTIONS = {
    "n": dict(help="number of vertices, or a grid"),
    "q": dict(type=float, help="number of colors"),
    "lam": dict(type=float, help="edge intensity lambda"),
    "beta": dict(type=float, help="inverse temperature (converted to lambda)"),
    "seed": dict(type=int, help="master seed (default: MCD_SEED or 0)"),
    "threads": dict(type=int, help="worker processes (default 1)"),
    "replicas": dict(type=int),
    "rho": dict(type=float, help="stability-set margin"),
    "start": dict(choices=["balanced", "ordered"]),
    "grid": dict(help="start:stop:step or comma list"),
    "fixed_points": dict(action="store_true",
                         help="print the drift fixed points as JSON"),
    "m_threshold": dict(type=int, help="large-cluster size cutoff"),
    "epsilon": dict(type=float),
    "burn": dict(type=int),
    "samples": dict(type=int),
    "cap": dict(type=int, help="escape-time cap"),
    "steps": dict(type=int),
    "observe_every": dict(type=int),
    "init": dict(),
    "kind": dict(choices=["sw", "cm", "glauber"]),
    "alpha": dict(type=float, help="restriction density for the bgj check"),
    "tol": dict(type=float),
    "out": dict(help="output path"),
    "config": dict(help="flat JSON option file, or a result sidecar"),
}


def _add_common(p: _Parser, *names: str) -> None:
    for name in names:
        p.add_argument(_flag(name), dest=name, default=None, **_OPTIONS[name])


def _options_help(table: dict, what: str, common: str, hidden) -> str:
    def shown(key, default):
        if key in ("seed", "out"):
            return _flag(key)
        return f"{_flag(key)} {'*' if default is _REQUIRED else default}"
    return (f"options per {what}, with defaults (* required), besides "
            f"{common}:\n"
            + "\n".join(f"  {name}: " + " ".join(
                shown(k, d) for k, d in options.values() if k not in hidden)
                for name, options in table.items()))


def build_parser() -> _Parser:
    parser = _Parser(prog="mcd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"mcd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for command, handler, summary in (
            ("critical-points", _cmd_critical_points,
             "print lambda_s, lambda_c, lambda_S for q"),
            ("drift", _cmd_drift, "tabulate the one-step drift functions"),
            ("simulate", _cmd_simulate,
             "run one chain and dump the trajectory")):
        p = sub.add_parser(command, help=summary)
        _add_common(p, *_dests(handler), "config")
        p.set_defaults(func=functools.partial(_invoke, handler))

    p = sub.add_parser(
        "experiment", help="run a replicated experiment",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_options_help({name: _options(*entry)
                              for name, entry in EXPERIMENTS.items()},
                             "experiment",
                             "--n, --lambda/--beta, --out and --config",
                             ("n", "lam")))
    p.add_argument("name", type=lambda s: s.replace("-", "_"),
                   help="one of " + ", ".join(EXPERIMENTS))
    _add_common(p, *dict.fromkeys(k for run, _ in EXPERIMENTS.values()
                                  for k in _dests(run)), "out", "config")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "oracle", help="exact small-system checks",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_options_help({name: _options(check)
                              for name, check in ORACLE_CHECKS.items()},
                             "check", "--n, --q, --lambda/--beta and --config",
                             ("n", "q", "lam")))
    p.add_argument("check", help="one of " + ", ".join(ORACLE_CHECKS))
    _add_common(p, *dict.fromkeys(k for check in ORACLE_CHECKS.values()
                                  for k in _dests(check)), "config")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except RegimeError as err:
        print(f"regime error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
