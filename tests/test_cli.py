"""CLI behavior: exit codes, emission targets, flag/ config precedence,
and the attack-demo traces."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.cli import main
from randaolab.harness import COLUMNS

BASE = ["--validators", "40", "--stake", "0.3", "--epochs", "3",
        "--seed", "1"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- simulate ------------------------------------------------------------------

def test_simulate_stdout_csv(capsys):
    code, out, err = run_main(["simulate", *BASE], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 2


def test_simulate_stdout_json(capsys):
    code, out, _ = run_main(
        ["simulate", *BASE, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["epochs"] == 3
    assert payload[0]["validator_count"] == 40


def test_simulate_to_file_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate", *BASE, "--out", str(first)]) == 0
    assert main(["simulate", *BASE, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_simulate_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nepochs = 9\nvalidator_count = 40\n")
    code, out, _ = run_main(
        ["simulate", "--config", str(path), "--epochs", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["epochs"] == 2
    assert payload[0]["validator_count"] == 40


def test_simulate_missing_config_exits_2(capsys):
    code, _, err = run_main(
        ["simulate", "--config", "/nonexistent/run.ini"], capsys
    )
    assert code == 2
    assert "config error:" in err
    assert "/nonexistent/run.ini" in err


def test_simulate_bad_scenario_value_exits_2(capsys):
    code, _, err = run_main(["simulate", "--epochs", "0"], capsys)
    assert code == 2
    assert "config error:" in err


def test_simulate_unwritable_out_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, _, err = run_main(
        ["simulate", *BASE, "--out", str(target)], capsys
    )
    assert code == 1
    assert "error:" in err


# -- argument errors -------------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    assert main(["simulate", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["replay"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "command", [["simulate", *BASE], ["sweep", "--config", "grid.ini"]]
)
def test_workers_below_one_exits_2(command, workers, capsys):
    code, out, err = run_main([*command, "--workers", workers], capsys)
    assert code == 2
    assert out == ""
    assert "config error: --workers" in err


def test_cap_above_default_exits_2(capsys):
    code, _, err = run_main(["simulate", *BASE, "--cap", "40"], capsys)
    assert code == 2
    assert "config error: strategy_cap" in err


# -- sweep ------------------------------------------------------------------------

def test_sweep_emits_one_row_per_cell(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[scenario]\n"
        "validator_count = 40\n"
        "epochs = 2\n"
        "[grid]\n"
        "attacker_stake_fraction = 0.0, 0.3\n"
        "rng_seed = 1, 2\n"
    )
    code, out, _ = run_main(["sweep", "--config", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + 4 cells
    stakes = [line.split(",")[2] for line in lines[1:]]
    assert stakes == ["0.0", "0.0", "0.3", "0.3"]


def test_sweep_requires_grid_section(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text("[scenario]\nepochs = 2\n")
    code, _, err = run_main(["sweep", "--config", str(path)], capsys)
    assert code == 2
    assert "config error:" in err


def test_sweep_config_flag_is_required(capsys):
    assert main(["sweep"]) == 2
    capsys.readouterr()


# -- attack-demo --------------------------------------------------------------------

def test_attack_demo_classic_trace(capsys):
    code, out, _ = run_main(
        ["attack-demo", "--protocol", "classic", "--validators", "40",
         "--stake", "0.3", "--seed", "0", "--trial", "0"],
        capsys,
    )
    assert code == 0
    assert "tail decision slots: [30, 31] (h = 2, 2^2 = 4 strategies)" in out
    mask_lines = [l for l in out.splitlines() if l.startswith("  mask ")]
    assert len(mask_lines) == 4
    assert sum(l.endswith("<- chosen") for l in mask_lines) == 1
    assert "honest payoff" in out and "gain" in out


def test_attack_demo_sss_trace(capsys):
    code, out, _ = run_main(
        ["attack-demo", "--protocol", "sss", "--validators", "40",
         "--stake", "0.3", "--participation", "0.1", "--threshold", "4",
         "--cap", "3", "--seed", "0", "--trial", "0"],
        capsys,
    )
    assert code == 0
    assert "security case: collusion" in out
    assert "flippable origin slots: [0, 1, 2] (2^3 = 8 strategies)" in out
    mask_lines = [l for l in out.splitlines() if l.startswith("  mask ")]
    assert len(mask_lines) == 8
    assert sum(l.endswith("<- chosen") for l in mask_lines) == 1
    assert "unrecoverable slots after attack:" in out


@pytest.mark.parametrize("trial", ["-1", str(2**64), str(-(2**70))])
def test_attack_demo_trial_out_of_range_exits_2(trial, capsys):
    code, out, err = run_main(
        ["attack-demo", "--validators", "40", "--trial", trial], capsys
    )
    assert code == 2
    assert out == ""
    assert "config error: --trial" in err


def test_attack_demo_trace_is_deterministic(capsys):
    argv = ["attack-demo", "--protocol", "classic", "--validators", "40",
            "--stake", "0.3", "--seed", "0"]
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)
    assert first == second


# -- installed entry point -------------------------------------------------------------

def test_module_invocation_matches_main(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "randaolab.cli", "simulate", *BASE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == ",".join(COLUMNS)


# -- the flag space --------------------------------------------------------------------

def _flag(name, values):
    return values.map(lambda value: [name, str(value)])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


# Any value at all for one flag, within the size limits of the run.
_WILD = {
    "--epochs": st.integers(max_value=2),
    "--seed": st.integers(),
    "--validators": st.integers(max_value=64),
    "--stake": st.floats(),
    "--participation": st.floats(),
    "--threshold": st.integers(),
    "--cap": st.integers(max_value=6),
}


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["simulate", "attack-demo"]),
    flags=st.tuples(
        _maybe("--protocol", st.sampled_from(["classic", "sss"])),
        _flag("--epochs", st.integers(1, 2)),
        _maybe("--seed", st.integers(0, 2**64 - 1)),
        _flag("--validators", st.integers(1, 64)),
        _maybe("--stake", st.floats(0.0, 1.0)),
        _maybe("--participation", st.floats(0.0, 1.0)),
        _maybe("--threshold", st.integers(1, 31)),
        _flag("--cap", st.integers(0, 6)),
        # Given last, so it overrides the flag's in-range value above.
        st.one_of(
            st.just([]),
            st.sampled_from(sorted(_WILD)).flatmap(
                lambda name: _flag(name, _WILD[name])
            ),
        ),
    ),
    # In range about half the time; below 0 or from 2^64 up otherwise.
    trial=st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.integers(),
        st.integers(min_value=2**64),
    ),
)
def test_any_flag_combination_exits_0_1_or_2(command, flags, trial):
    """Small runs only: epochs <= 2, validators <= 64, cap <= 6 and one
    worker; --trial is any int."""
    argv = [command, *(token for flag in flags for token in flag)]
    if command == "attack-demo":
        argv += ["--trial", str(trial)]
    else:
        argv += ["--workers", "1"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
