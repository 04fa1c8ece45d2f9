import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mcd.cli import EXPERIMENTS, ORACLE_CHECKS, _parse_grid, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# option plumbing

def test_grid_parser_forms():
    assert _parse_grid("0.34:0.70:0.02") == pytest.approx(
        [0.34 + 0.02 * k for k in range(19)])
    assert _parse_grid("1,2,3.5") == [1.0, 2.0, 3.5]
    assert _parse_grid("7") == [7.0]
    assert _parse_grid(7) == [7.0]
    assert _parse_grid("200:800:200", "int") == [200, 400, 600, 800]
    # a bad grid is a ValueError, which the CLI prefixes with its option
    with pytest.raises(ValueError, match="expected start:stop:step"):
        _parse_grid("1:2")
    with pytest.raises(ValueError, match="need step > 0"):
        _parse_grid("5:1:1")
    with pytest.raises(ValueError, match="expected an integer, got 0.5"):
        _parse_grid("0.5:1:0.25", "int")
    with pytest.raises(TypeError, match="expected a number, got False"):
        _parse_grid([0.5, False])


# ---------------------------------------------------------------------------
# subcommands

def test_critical_points_json(capsys):
    code, out, _ = run(capsys, "critical-points", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_c"] == pytest.approx(4 * math.log(2), abs=1e-12)
    assert payload["lambda_S"] == 3.0


def test_drift_table_and_fixed_points(capsys):
    code, out, _ = run(capsys, "drift", "--q", "3", "--lambda", "2.7725887",
                       "--grid", "0.4:0.6:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,F,f,g"
    assert len(lines) == 4
    code, out, _ = run(capsys, "drift", "--q", "3",
                       "--lambda", str(4 * math.log(2)), "--fixed-points")
    assert code == 0
    assert json.loads(out)["a_lambda"] == pytest.approx(2 / 3, abs=1e-8)
    for lam in ("40", "100"):  # 1 - a is below the float spacing near 1
        code, out, _ = run(capsys, "drift", "--q", "3", "--lambda", lam,
                           "--fixed-points")
        assert code == 0
        assert json.loads(out)["a_lambda"] == json.loads(out)["theta_r"] == 1.0


def test_lambda_beta_exclusivity(capsys):
    code, _, err = run(capsys, "drift", "--q", "3", "--grid", "0.5")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "drift", "--q", "3", "--lambda", "1",
                       "--beta", "1", "--grid", "0.5")
    assert code == 1
    # beta needs a single n to convert
    code, _, err = run(capsys, "experiment", "sm_tail", "--n", "100:200:100",
                       "--beta", "0.5")
    assert code == 1 and "single" in err
    code, _, err = run(capsys, "drift", "--q", "3", "--beta", "0.5",
                       "--n", "100:200:100")
    assert code == 1 and "needs a single --n" in err


def test_beta_conversion_matches_formula(capsys, tmp_path):
    n, beta = 50, 0.5
    lam = -n * math.expm1(-beta / n)
    code, out, _ = run(capsys, "experiment", "cluster_tail_bound",
                       "--n", str(n), "--beta", str(beta), "--grid", "2",
                       "--replicas", "5", "--seed", "1",
                       "--out", str(tmp_path / "ct_beta.csv"))
    assert code == 0
    side = json.loads((tmp_path / "ct_beta.json").read_text())
    assert side["config"]["lambda"] == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("q", ["0.5", "0", "-1", "inf"])
def test_cm_drift_map_rejects_q_below_one(q, capsys, tmp_path):
    out = tmp_path / "drift.csv"
    code, _, err = run(capsys, "experiment", "cm_drift_map", "--n", "100",
                       "--q", q, "--lambda", "2", "--grid", "0.3",
                       "--replicas", "5", "--out", str(out))
    assert code == 1 and "q >= 1" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sw_requires_integer_q(capsys):
    code, _, err = run(capsys, "simulate", "--kind", "sw", "--n", "20",
                       "--q", "2.5", "--lambda", "1", "--steps", "1")
    assert code == 1 and "integer q" in err
    code, _, err = run(capsys, "experiment", "sw_drift_map", "--n", "50",
                       "--q", "2.5", "--lambda", "1", "--grid", "0.5",
                       "--replicas", "2")
    assert code == 1 and "integer q" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "sw", "--n", "20", "--lambda", "1"],
    ["experiment", "one_step_exit", "--n", "30", "--lambda", "2",
     "--replicas", "2"],
    ["oracle", "stationarity", "--kind", "sw", "--n", "3", "--lambda", "1"],
    ["oracle", "es-coupling", "--n", "3", "--lambda", "1"],
], ids=lambda a: a[1])
def test_integer_q_paths_refuse_infinite_q(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, *argv, "--q", "inf",
                            *(["--out", str(out)] if argv[0] != "oracle" else []))
    assert code == 1 and "integer q" in err and "Traceback" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["critical-points", "--q", "nan"],
    ["critical-points", "--q", "inf"],
    ["simulate", "--kind", "cm", "--n", "20", "--q", "nan", "--lambda", "1"],
    ["oracle", "gap", "--kind", "cm", "--n", "3", "--q", "nan",
     "--lambda", "1"],
    ["drift", "--q", "3", "--lambda", "inf", "--grid", "0.5"],
    ["drift", "--q", "3", "--lambda", "nan", "--grid", "0.5"],
    ["drift", "--lambda", "2", "--grid", "0.5", "--q", "nan"],
    ["drift", "--lambda", "2", "--grid", "0.5", "--q", "inf"],
    ["drift", "--lambda", "2", "--grid", "0.5", "--q", "0.5"],
], ids=lambda a: "-".join(a[:2] + a[-3:]))
def test_non_finite_q_and_lambda_are_refused(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "finite" in err and "Traceback" not in err
    assert out == ""


def test_simulate_trajectory_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--kind", "glauber", "--n", "12",
                       "--q", "2", "--lambda", "1", "--steps", "4",
                       "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,l1_frac,sm_frac,edge_count,counts"
    assert len(lines) == 6


def test_unknown_experiment_and_oracle(capsys):
    code, _, err = run(capsys, "experiment", "nope", "--n", "10",
                       "--lambda", "1")
    assert code == 1 and "unknown experiment" in err
    code, _, err = run(capsys, "oracle", "nope", "--n", "3", "--q", "2",
                       "--lambda", "1")
    assert code == 1 and "unknown oracle check" in err


def test_oracle_pass_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "oracle", "stationarity", "--kind", "glauber",
                       "--n", "3", "--q", "2", "--lambda", "1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "oracle", "stationarity", "--kind", "glauber",
                       "--n", "3", "--q", "2", "--lambda", "1",
                       "--tol", "1e-30")
    assert code == 2 and "FAIL" in out
    # one vertex: the heat bath has no pair to update
    code, out, _ = run(capsys, "oracle", "stationarity", "--kind", "glauber",
                       "--n", "1", "--q", "2", "--lambda", "0.5")
    assert code == 0 and "PASS" in out


# a tiny run of every oracle check, and options it does not take
ORACLE_TINY = {
    "stationarity": (["--kind", "cm", "--n", "3", "--q", "2.5"],
                     {"alpha": 0.5}),
    "detailed-balance": (["--kind", "sw", "--n", "3", "--q", "3"],
                         {"out": "x.csv"}),
    "gap": (["--kind", "glauber", "--n", "3", "--q", "2"],
            {"tol": 5, "alpha": 0.9}),
    "mixing": (["--kind", "cm", "--n", "3", "--q", "2"], {"tol": 1e-3}),
    "cheeger": (["--kind", "sw", "--n", "3", "--q", "3"], {"alpha": 0.5}),
    "dump": (["--kind", "glauber", "--n", "3", "--q", "2"], {"tol": 1e-3}),
    "bgj": (["--n", "3", "--q", "3"], {"kind": "sw"}),
    "iterated-coloring": (["--n", "3", "--q", "2.5"], {"alpha": 0.5}),
    "es-coupling": (["--n", "3", "--q", "3"], {"kind": "glauber"}),
}


@pytest.mark.parametrize("check", list(ORACLE_CHECKS))
def test_oracle_check_runs_and_rejects_options_it_does_not_take(
        check, tmp_path, capsys):
    argv, foreign = ORACLE_TINY[check]
    argv = ["oracle", check, *argv, "--lambda", "1"]
    if check == "dump":
        argv += ["--out", str(tmp_path / "kernel.csv")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert check == "dump" or "FAIL" not in out

    flags = [str(x) for key, val in foreign.items()
             for x in ("--" + key, val)]
    code, _, err = run(capsys, *argv, *flags)
    assert code == 1 and check in err
    assert all("--" + key in err for key in foreign)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(foreign))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and check in err
    assert all("--" + key in err for key in foreign)


# a tiny run of each plain subcommand, the options it requires, and
# options it does not take
PLAIN_TINY = {
    "critical-points": (["--q", "3"], ["--q"], {"n": 5, "lambda": 2}),
    "drift": (["--q", "3", "--lambda", "2", "--grid", "0.5"], ["--q"],
              {"seed": 1, "steps": 3}),
    "simulate": (["--kind", "cm", "--n", "20", "--q", "2", "--lambda", "1",
                  "--steps", "2"], ["--n", "--q"], {"grid": "0.5", "tol": 1}),
}


@pytest.mark.parametrize("intensity", ["--lambda", "--beta"])
@pytest.mark.parametrize("command", [*(f"oracle {check}" for check in ORACLE_CHECKS),
                                     "simulate", "drift"])
def test_n_zero_is_refused_by_the_n_rule(command, intensity, tmp_path,
                                         capsys):
    # with --beta, n is refused before it converts: -n*expm1(-beta/n) at
    # n = 0 divides by zero; drift takes n only for that conversion
    words = command.split()
    tiny = (ORACLE_TINY[words[1]][0] if words[0] == "oracle"
            else PLAIN_TINY[command][0])
    flags = {**dict(zip(tiny[::2], tiny[1::2])), "--lambda": None,
             "--n": "0", intensity: "1"}
    if command in ("oracle dump", "simulate", "drift"):
        flags["--out"] = str(tmp_path / "x.csv")
    argv = [*words, *(token for flag, value in flags.items() if value
                      for token in (flag, value))]
    assert run(capsys, *argv) \
        == (1, "", "error: n must be a positive integer, got 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(PLAIN_TINY))
def test_plain_subcommand_requires_its_options_and_rejects_others(
        command, tmp_path, capsys):
    argv, required, foreign = PLAIN_TINY[command]
    assert run(capsys, command, *argv)[0] == 0
    for flag in required:
        i = argv.index(flag)
        code, out, err = run(capsys, command, *argv[:i], *argv[i + 2:])
        assert code == 1 and out == "" and f"{flag} is required" in err

    # a flag the subcommand's parser lacks is refused by argparse
    flags = [str(x) for key, val in foreign.items()
             for x in ("--" + key, val)]
    code, _, err = run(capsys, command, *argv, *flags)
    assert code == 1 and "unrecognized arguments" in err
    assert all("--" + key in err for key in foreign)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(foreign))
    code, _, err = run(capsys, command, *argv, "--config", str(cfg))
    assert code == 1 and f"{command} does not take" in err
    assert all("--" + key in err for key in foreign)


# every subcommand takes its arguments by one set of rules; each probe is
# an argv, a --config object or None, and the error it must give
ONE_PATH = {
    "critical-points": [
        ([], None, "--q is required"),
        ([], {"q": {"a": 1}}, "--q: "),
        ([], {"q": True}, "--q: "),
        ([], {"q": 10 ** 400}, "--q: "),
    ],
    "drift": [
        (["--lambda", "2"], None, "--q is required"),
        (["--q", "3", "--lambda", "2", "--n", "10,20"], None,
         "drift takes a single --n"),
        (["--q", "3"], {"lambda": [1]}, "--lambda/--beta: "),
        (["--q", "3", "--lambda", "2"], {"grid": [[0.5]]}, "--grid: "),
        (["--q", "3"], {"lambda": True}, "--lambda/--beta: "),
        (["--q", "3", "--lambda", "2"], {"grid": True}, "--grid: "),
        (["--q", "3", "--lambda", "2"], {"grid": [0.5, False]}, "--grid: "),
    ],
    "simulate": [
        (["--q", "2", "--lambda", "1"], None, "--n is required"),
        (["--n", "10,20", "--q", "2", "--lambda", "1"], None,
         "simulate takes a single --n"),
        (["--n", "10", "--q", "2", "--lambda", "1"], {"seed": [1]},
         "--seed: "),
        (["--n", "10", "--q", "2", "--lambda", "1"], {"seed": 1.9},
         "--seed: "),
        (["--n", "10", "--q", "2", "--lambda", "1"], {"kind": "x"},
         "unknown --kind 'x'"),
        (["--n", "10", "--q", "2", "--lambda", "1"], {"init": "gnp"},
         "unknown sw --init 'gnp'"),
    ],
    "experiment": [
        (["sw_drift_map", "--n", "50", "--q", "3", "--lambda", "1"], None,
         "--grid is required"),
        (["bimodality_scan", "--n", "10,20", "--q", "3", "--lambda", "1"],
         None, "bimodality_scan takes a single --n"),
        (["sm_tail", "--n", "40", "--lambda", "0.5"], {"replicas": [5]},
         "--replicas: "),
        (["sm_tail", "--n", "40", "--lambda", "0.5"], {"seed": [1]},
         "--seed: "),
        *((["sm_tail", "--n", "40", "--lambda", "0.5"], {"replicas": value},
           "--replicas: ") for value in (True, 5.7, "5")),
    ],
    "oracle": [
        (["gap", "--n", "3", "--lambda", "1"], None, "--q is required"),
        (["gap", "--n", "3,4", "--q", "2", "--lambda", "1"], None,
         "gap takes a single --n"),
        (["gap", "--n", "3", "--q", "2"], {"lambda": [1]},
         "--lambda/--beta: "),
        (["gap", "--q", "2", "--lambda", "0.5"], {"n": True}, "--n: "),
    ],
}


@pytest.mark.parametrize("command", list(ONE_PATH))
def test_every_subcommand_reads_its_options_by_one_set_of_rules(
        command, tmp_path, capsys):
    cfg, csv = tmp_path / "cfg.json", tmp_path / "x.csv"
    for argv, config, message in ONE_PATH[command]:
        extra = []
        if config is not None:
            cfg.write_text(json.dumps(config))
            extra = ["--config", str(cfg)]
        if command == "experiment":
            extra += ["--out", str(csv)]
        code, out, err = run(capsys, command, *argv, *extra)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and message in err, (argv, err)
        assert err.count("\n") == 1 and not csv.exists()

    # a one-element n list, as experiment sidecars write it, is one --n
    if command == "simulate":
        argv = next(a for a in SIMULATE_SHA256 if "sw" in a)
        i = argv.index("--n")
        cfg.write_text(json.dumps({"n": [int(argv[i + 1])], "seed": 5}))
        code, out, _ = run(capsys, command, *argv[:i], *argv[i + 2:],
                           "--config", str(cfg))
        assert code == 0
        assert_pinned(out.encode(), SIMULATE_SHA256[argv])
    elif command == "oracle":
        argv = ["gap", "--kind", "glauber", "--q", "2", "--lambda", "1"]
        code, expected, _ = run(capsys, command, *argv, "--n", "3")
        cfg.write_text(json.dumps({"n": [3]}))
        assert run(capsys, command, *argv, "--config", str(cfg)) \
            == (code, expected, "")


# cheeger on kernels whose best cuts leave less mass on one side than the
# rounding of 1
@pytest.mark.parametrize("argv", [
    ["--kind", "glauber", "--n", "4", "--q", "2", "--lambda", "0.01"],
    ["--kind", "cm", "--n", "4", "--q", "2", "--lambda", "0.01"],
    ["--kind", "glauber", "--n", "5", "--q", "2", "--lambda", "0.1"],
    ["--kind", "glauber", "--n", "3", "--q", "2", "--lambda", "1e-6"],
], ids=lambda a: f"{a[1]}-{a[3]}-{a[-1]}")
def test_cheeger_takes_cuts_with_a_tiny_side(argv, capsys):
    code, out, err = run(capsys, "oracle", "cheeger", *argv)
    assert code in (0, 2) and "Traceback" not in err
    assert re.search(r"phi = \d\.\d+(e-\d+)?, ", out)


def test_cheeger_searches_sw_cuts_on_the_classes(capsys):
    # 4096 states in 187 classes: every cut is scored on the class kernel
    code, out, _ = run(capsys, "oracle", "cheeger", "--kind", "sw", "--n", "6",
                       "--q", "4", "--lambda", "1")
    assert code == 0 and out.startswith("cheeger (family): ")
    assert out.endswith(": PASS\n")


def test_drift_config_flag_false_prints_the_table(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for flag, first in ((False, "z,F,f,g"), (True, "{")):
        cfg.write_text(json.dumps({"q": 3, "lambda": 2.7725887,
                                   "grid": "0.4:0.6:0.1",
                                   "fixed-points": flag}))
        code, out, _ = run(capsys, "drift", "--config", str(cfg))
        assert code == 0 and out.splitlines()[0] == first
    # a switch must be a JSON boolean
    for flag in ("false", "true", 0, 1, []):
        cfg.write_text(json.dumps({"fixed-points": flag}))
        code, out, err = run(capsys, "drift", "--q", "3", "--lambda", "2",
                             "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: --fixed-points: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["oracle", "dump", "--kind", "glauber", "--n", "3", "--q", "2",
     "--lambda", "1"],
    ["experiment", "sm_tail", "--n", "40", "--lambda", "0.5",
     "--replicas", "5"],
], ids=lambda a: a[1])
def test_config_out_of_the_wrong_type_names_out(argv, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for out in ([1], 5, {"path": "x.csv"}, True):
        cfg.write_text(json.dumps({"out": out}))
        code, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: --out: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_regime_error_exit_code(capsys):
    code, _, err = run(capsys, "experiment", "one_step_exit", "--n", "30",
                       "--q", "3", "--lambda", "2.0", "--start", "ordered",
                       "--replicas", "2")
    assert code == 3 and "regime" in err.lower()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": "30:60:30", "q": 3, "lambda": 2.772588722239781,
        "rho": 0.08, "start": "balanced", "replicas": 50, "seed": 4}))
    out1 = tmp_path / "a.csv"
    code, _, _ = run(capsys, "experiment", "one_step_exit",
                     "--config", str(cfg), "--out", str(out1))
    assert code == 0
    assert ",50," in out1.read_text()
    out2 = tmp_path / "b.csv"
    code, _, _ = run(capsys, "experiment", "one_step_exit",
                     "--config", str(cfg), "--replicas", "20",
                     "--out", str(out2))
    assert code == 0
    assert ",20," in out2.read_text()


L = "2.772588722239781"

# a tiny run of every registered experiment, and the n it echoes
TINY = {
    "one_step_exit": ([30, 60], ["--n", "30,60", "--q", "3", "--lambda", L,
                                 "--replicas", "40"]),
    "escape_time": ([30], ["--n", "30", "--q", "3", "--lambda", L,
                           "--replicas", "20", "--cap", "50"]),
    "sw_drift_map": ([300], ["--n", "300", "--q", "3", "--lambda", L,
                             "--grid", "0.4,0.6", "--replicas", "20"]),
    "cm_drift_map": ([300], ["--n", "300", "--q", "3", "--lambda", L,
                             "--grid", "0.3,0.5", "--replicas", "20"]),
    "sm_tail": ([40, 80], ["--n", "40,80", "--lambda", "0.5", "--rho", "0.3",
                           "--m-threshold", "5", "--replicas", "200"]),
    "cluster_tail_bound": ([500], ["--n", "500", "--lambda", "0.5",
                                   "--grid", "2:6:2", "--replicas", "500"]),
    "giant_concentration": ([2000], ["--n", "2000", "--lambda", "2",
                                     "--epsilon", "0.05", "--replicas", "20"]),
    "bimodality_scan": ([120], ["--n", "120", "--q", "3", "--lambda", L,
                                "--burn", "5", "--samples", "30"]),
}


def assert_pinned(data: bytes, pin: str):
    """The sha256 prefix of data is pin. The bytes come from numpy's
    generators, so the message names the numpy that made them."""
    digest = hashlib.sha256(data).hexdigest()[:16]
    assert digest == pin, \
        f"sha256 prefix {digest}, pinned {pin}, under numpy {np.__version__}"


# sha256 prefixes of the TINY CSVs at --seed 5; a change to any stream's
# draw order changes them, whatever the thread count
TINY_SHA256 = {
    "one_step_exit": "da6fd66f847e3324",
    "escape_time": "858947e0fae09d47",
    "sw_drift_map": "29db2cb0e5da69e3",
    "cm_drift_map": "9455e8a03fca87e6",
    "sm_tail": "7f097072e068155a",
    "cluster_tail_bound": "9c84a6b7af07a441",
    "giant_concentration": "be7c6f5167746300",
    "bimodality_scan": "80fe5ef5c1055d94",
}


# sha256 prefixes of `mcd simulate ... --seed 5` output: the sw chain's
# recoloring order, cm's activation order and glauber's pair draws
SIMULATE_SHA256 = {
    ("--kind", "sw", "--n", "300", "--q", "3", "--lambda", "2.7726",
     "--steps", "50", "--init", "random"): "7dae5c95b37b3612",
    ("--kind", "cm", "--n", "60", "--q", "2.5", "--lambda", "2.0",
     "--steps", "200", "--init", "gnp"): "7df566647d516cc0",
    ("--kind", "glauber", "--n", "30", "--q", "2", "--lambda", "1.5",
     "--steps", "300", "--init", "gnp"): "4786f4c787ff18cc",
}


# sha256 prefixes of `mcd oracle dump` CSVs: every stationary probability
# and kernel entry as its repr, so a change to any bit of a kernel shows
DUMP_SHA256 = {
    ("--kind", "glauber", "--n", "4", "--q", "2", "--lambda", "1"): "cb4f734731f6320d",
    ("--kind", "sw", "--n", "4", "--q", "3", "--lambda", "2.5"): "5e8be37219b5da88",
    ("--kind", "cm", "--n", "4", "--q", "2.5", "--lambda", "1"): "d25ebe53d7aec632",
}


@pytest.mark.parametrize("argv", list(DUMP_SHA256), ids=lambda a: a[1])
def test_oracle_dump_bytes_are_pinned(argv, tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    code, _, _ = run(capsys, "oracle", "dump", *argv, "--out", str(out))
    assert code == 0
    assert_pinned(out.read_bytes(), DUMP_SHA256[argv])


@pytest.mark.parametrize("argv", list(SIMULATE_SHA256), ids=lambda a: a[1])
def test_simulate_bytes_are_pinned(argv, capsys):
    code, out, _ = run(capsys, "simulate", *argv, "--seed", "5")
    assert code == 0
    assert_pinned(out.encode(), SIMULATE_SHA256[argv])


def test_simulate_config_file_gives_the_pinned_bytes(tmp_path, capsys):
    argv = next(a for a in SIMULATE_SHA256 if "sw" in a)
    options = {flag[2:]: value if flag in ("--kind", "--init")
               else json.loads(value)
               for flag, value in zip(argv[::2], argv[1::2])}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**options, "seed": 5}))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert_pinned(out.encode(), SIMULATE_SHA256[argv])


def test_simulate_seed_defaults_to_mcd_seed(monkeypatch, capsys):
    argv = next(a for a in SIMULATE_SHA256 if "sw" in a)
    monkeypatch.setenv("MCD_SEED", "5")
    code, out, _ = run(capsys, "simulate", *argv)
    assert code == 0
    assert_pinned(out.encode(), SIMULATE_SHA256[argv])
    monkeypatch.setenv("MCD_SEED", "5.0")
    code, out, err = run(capsys, "simulate", *argv)
    assert (code, out) == (1, "") and err.startswith("error: --seed: ")


def test_integral_numbers_pass_for_integer_options(tmp_path, capsys):
    # 5.0 is the integer 5: the same CSV bytes as --replicas 5
    argv = ["experiment", "sm_tail", "--n", "40", "--lambda", "0.5"]
    cfg, out = tmp_path / "cfg.json", []
    for i, config in enumerate(({"replicas": 5}, {"replicas": 5.0})):
        cfg.write_text(json.dumps(config))
        csv = tmp_path / f"{i}.csv"
        assert run(capsys, *argv, "--config", str(cfg), "--out", str(csv))[0] == 0
        out.append(csv.read_text())
    assert out[0] == out[1] and ",5," in out[0]


# the option tables of `mcd experiment --help` and `mcd oracle --help`:
# each experiment's and check's options, in the order they are passed
# after (n, lambda) or (n, q, lambda), with their defaults
EXPERIMENT_EPILOG = """\
options per experiment, with defaults (* required), besides --n, --lambda/--beta, --out and --config:
  one_step_exit: --q * --rho 0.08 --start balanced --replicas 500 --seed --threads 1
  escape_time: --q * --rho 0.08 --start balanced --replicas 200 --seed --cap 1000000 --threads 1
  sw_drift_map: --q * --grid * --replicas 200 --seed --threads 1
  cm_drift_map: --q 1.0 --grid * --replicas 200 --seed --threads 1
  sm_tail: --m-threshold 20 --rho 0.2 --replicas 50000 --seed --threads 1
  cluster_tail_bound: --grid 20:60:20 --replicas 100000 --seed --threads 1
  giant_concentration: --epsilon 0.01 --replicas 100 --seed --threads 1
  bimodality_scan: --q * --burn 200 --samples 1000 --seed
"""

ORACLE_EPILOG = """\
options per check, with defaults (* required), besides --n, --q, --lambda/--beta and --config:
  stationarity: --kind glauber --tol 1e-10
  detailed-balance: --kind glauber --tol 1e-12
  gap: --kind glauber
  mixing: --kind glauber
  cheeger: --kind glauber
  dump: --kind glauber --out
  bgj: --alpha 0.3333333333333333 --tol 1e-10
  iterated-coloring: --tol 1e-10
  es-coupling: --tol 1e-10
"""


def pinned_options(epilog: str) -> dict:
    """{name: its option dests in order} from a pinned epilog."""
    return {name: [t[2:].replace("-", "_") for t in rest.split()
                   if t.startswith("--")]
            for name, rest in (line.strip().split(": ", 1)
                               for line in epilog.splitlines()[1:])}


def test_registry_options_follow_function_parameters(capsys):
    for command, epilog, table in (("experiment", EXPERIMENT_EPILOG, EXPERIMENTS),
                                   ("oracle", ORACLE_EPILOG, ORACLE_CHECKS)):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        help_text = capsys.readouterr().out
        assert help_text[help_text.index("options per"):] == epilog
        assert list(pinned_options(epilog)) == list(table)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_bytes_hold_across_threads_and_sidecar_rerun(
        name, tmp_path, capsys):
    n_vals, opts = TINY[name]
    argv = ["experiment", name, *opts, "--seed", "5"]
    first = tmp_path / "t1.csv"
    options = pinned_options(EXPERIMENT_EPILOG)[name]
    if "threads" in options:
        assert run(capsys, *argv, "--threads", "1", "--out", str(first))[0] == 0
        other = tmp_path / "t2.csv"
        assert run(capsys, *argv, "--threads", "2", "--out", str(other))[0] == 0
        assert first.read_bytes() == other.read_bytes()
    else:
        code, _, err = run(capsys, *argv, "--threads", "2")
        assert code == 1 and "--threads" in err
        assert run(capsys, *argv, "--out", str(first))[0] == 0
    assert_pinned(first.read_bytes(), TINY_SHA256[name])

    side = json.loads((tmp_path / "t1.json").read_text())["config"]
    assert set(side) == {"command", "experiment", "n", "lambda", "out",
                         *options}
    assert side["command"] == "experiment" and side["experiment"] == name
    assert side["n"] == n_vals
    if name == "sm_tail":
        assert side["m_threshold"] == 5

    rerun = tmp_path / "rerun.csv"
    assert run(capsys, "experiment", name, "--config", str(tmp_path / "t1.json"),
               "--out", str(rerun))[0] == 0
    assert rerun.read_bytes() == first.read_bytes()


def tiny_argv(name: str, changed: dict) -> list:
    """The argv of name's TINY run with the flags in changed set to their
    values there, or left out where the value is None."""
    opts = TINY[name][1]
    flags = {**dict(zip(opts[::2], opts[1::2])), **changed}
    return ["experiment", name, *(token for flag, value in flags.items()
                                  if value is not None
                                  for token in (flag, value))]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_refuses_n_and_lambda_outside_the_model(name, tmp_path,
                                                           capsys):
    cases = [({"--n": "0"}, "n must be a positive integer, got 0"),
             ({"--n": "-5"}, "n must be a positive integer, got -5"),
             ({"--n": "0", "--lambda": None, "--beta": "1"},
              "n must be a positive integer, got 0")]
    if name not in ("sm_tail", "cluster_tail_bound"):  # these need lam < 1
        cases.append(({"--n": "3", "--lambda": "3"},
                      "lam must lie in (0, n), got 3.0"))
    for changed, message in cases:
        assert run(capsys, *tiny_argv(name, changed),
                   "--out", str(tmp_path / "x.csv")) \
            == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,key,grid", [
    ("one_step_exit", "n", "n"), ("escape_time", "n", "n"),
    ("sm_tail", "n", "n"), ("sw_drift_map", "grid", "z"),
    ("cm_drift_map", "grid", "theta"), ("cluster_tail_bound", "grid", "k")])
def test_an_empty_grid_is_refused_at_every_thread_count(name, key, grid,
                                                         tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: []}))
    for threads in ("1", "2"):
        assert run(capsys, *tiny_argv(name, {"--" + key: None}),
                   "--config", str(cfg), "--threads", threads,
                   "--out", str(tmp_path / "x.csv")) \
            == (1, "", f"error: {grid} grid must not be empty\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_experiment_wall_clock_goes_to_stderr_only(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run(capsys, "experiment", "sm_tail", *TINY["sm_tail"][1],
                            "--seed", "5", "--out", str(out))
    assert code == 0 and stdout == f"{out}\n"
    assert len([line for line in err.splitlines()
                if re.fullmatch(r"wall clock: \d+\.\d\ds", line)]) == 1
    side = json.loads((tmp_path / "t.json").read_text())
    assert set(side) == {"config", "version"}
    assert set(side["config"]) == {
        "command", "experiment", "n", "lambda", "out",
        *pinned_options(EXPERIMENT_EPILOG)["sm_tail"]}


# replica ranges at their edges: one replica, fewer replicas than workers,
# and replica counts that end on a partial range
RANGE_EDGES = [
    ["one_step_exit", "--n", "30,60", "--q", "3", "--lambda", L,
     "--replicas", "1"],
    ["sm_tail", "--n", "40,80", "--lambda", "0.5", "--rho", "0.3",
     "--m-threshold", "5", "--replicas", "2"],
    ["escape_time", "--n", "30", "--q", "3", "--lambda", L, "--replicas", "2",
     "--cap", "50"],
    ["one_step_exit", "--n", "30,60", "--q", "3", "--lambda", L,
     "--replicas", "41"],
    ["cm_drift_map", "--n", "200", "--q", "3", "--lambda", L,
     "--grid", "0.3,0.5", "--replicas", "13"],
    ["giant_concentration", "--n", "1000", "--lambda", "2",
     "--epsilon", "0.05", "--replicas", "7"],
]


@pytest.mark.parametrize("argv", RANGE_EDGES, ids=lambda a: f"{a[0]}-{a[-1]}")
def test_replica_range_edges_keep_bytes_across_threads(argv, tmp_path, capsys):
    outs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}.csv"
        assert run(capsys, "experiment", *argv, "--seed", "5",
                   "--threads", threads, "--out", str(out))[0] == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("name,option,value", [
    ("escape_time", "--replicas", "0"),
    ("one_step_exit", "--replicas", "0"),
    ("sm_tail", "--replicas", "-1"),
    ("one_step_exit", "--threads", "0"),
    ("one_step_exit", "--threads", "-3"),
    ("escape_time", "--cap", "0"),
    ("escape_time", "--cap", "-2"),
    ("escape_time", "--rho", "-0.1"),
    ("escape_time", "--rho", "0"),
    ("escape_time", "--rho", "nan"),
    ("one_step_exit", "--rho", "nan"),
    ("sm_tail", "--rho", "0"),
    ("sm_tail", "--rho", "-1"),
    ("sm_tail", "--rho", "nan"),
    ("giant_concentration", "--epsilon", "nan"),
    ("giant_concentration", "--epsilon", "0"),
    ("bimodality_scan", "--burn", "-5"),
    ("bimodality_scan", "--samples", "0"),
])
def test_replica_options_below_one_are_rejected(name, option, value,
                                                 tmp_path, capsys):
    _, opts = TINY[name]
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "experiment", name, *opts, "--seed", "5",
                       option, value, "--out", str(out))
    assert code == 1 and option.lstrip("-") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_rejects_options_it_does_not_take(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "experiment", "sm_tail", "--n", "40",
                       "--lambda", "0.5", "--q", "3", "--cap", "7",
                       "--start", "ordered", "--out", str(out))
    assert code == 1
    assert "--q" in err and "--cap" in err and "--start" in err
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"n": 40, "lambda": 0.5, "replica": 20}))
    code, _, err = run(capsys, "experiment", "sm_tail", "--config", str(cfg),
                       "--out", str(out))
    assert code == 1 and "--replica" in err
    assert not out.exists()


def test_sidecar_config_must_match_the_invocation(tmp_path, capsys):
    out = tmp_path / "tail.csv"
    assert run(capsys, "experiment", "sm_tail", "--n", "40", "--lambda", "0.5",
               "--replicas", "5", "--out", str(out))[0] == 0
    code, _, err = run(capsys, "experiment", "giant_concentration",
                       "--config", str(tmp_path / "tail.json"))
    assert code == 1 and "sm_tail" in err


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["experiment", "one_step_exit", "--n", "30", "--q", "3",
            "--lambda", "2.7725887", "--rho", "0.08", "--start", "balanced",
            "--replicas", "40", "--seed", "21"]
    a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(capsys, *argv, "--threads", "1", "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--threads", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_version_is_declared_once():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] \
        == {"attr": "mcd.__version__"}


def test_readme_cheeger_example_prints_what_it_quotes(capsys):
    # the README quotes one oracle command and its output line verbatim
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().splitlines()
    i = next(k for k, line in enumerate(lines)
             if line.startswith("$ mcd oracle cheeger"))
    code, out, _ = run(capsys, *lines[i].split()[2:])
    assert code == 0
    assert out == lines[i + 1] + "\n"
