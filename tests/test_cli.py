"""CLI behavior: exit codes, emission targets, flag/ config precedence,
and the attack-demo traces."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from randaolab.cli import build_parser, main
from randaolab.harness import COLUMNS, classic_trial, sss_trial
from randaolab.scenario import (
    FIELD_PARSERS,
    MAX_VALIDATORS,
    PROTOCOLS,
    SCENARIO_FIELDS,
    load_scenario,
)

BASE = ["--validators", "40", "--stake", "0.3", "--epochs", "3",
        "--seed", "1"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_flags_write_their_scenario_fields():
    # A scenario flag's argparse dest is the field it overrides and its
    # type that field's parser, so the CLI keeps no flag-to-field map,
    # parser or protocol list of its own.
    other = {"help", "config", "out", "format", "workers", "trial"}
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for command in ("simulate", "attack-demo"):
        actions = [
            action
            for action in subparsers.choices[command]._actions
            if action.dest not in other
        ]
        dests = {action.dest for action in actions}
        assert dests <= set(SCENARIO_FIELDS), command
        assert len(dests) == 8, command
        for action in actions:
            assert action.type is FIELD_PARSERS[action.dest], action.dest
            if action.dest == "protocol":
                assert tuple(action.choices) == PROTOCOLS


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


def test_negative_zero_fractions_emit_the_zero_report(capsys):
    # -0.0 == 0.0, so the two scenarios are equal and so are their
    # report bytes.
    reports = [
        run_main(
            ["simulate", *BASE, "--protocol", "sss", "--stake", zero,
             "--participation", zero],
            capsys,
        )
        for zero in ("-0.0", "0.0")
    ]
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


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


def test_simulate_sparse_registry_exits_2(tmp_path, capsys):
    # One selectable balance among 40: a slot would run out of its
    # selection tries about one time in three.
    path = tmp_path / "sparse.ini"
    path.write_text(
        "[scenario]\nvalidator_count = 40\nattacker_stake_fraction = 0.5\n"
        "epochs = 1\nbalance_model = explicit:125000000" + ",1" * 39 + "\n"
    )
    code, out, err = run_main(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "config error:" in err and "1/512" in err


@pytest.mark.parametrize("count", [MAX_VALIDATORS + 1, 10**12])
def test_simulate_validators_above_cap_exits_2(count, capsys):
    code, _, err = run_main(["simulate", "--validators", str(count)], capsys)
    assert code == 2
    assert "config error:" in err


def test_simulate_unselectable_registry_exits_2(tmp_path, capsys):
    # Both balances below MAX/256: selection would starve at slot 0.
    path = tmp_path / "starved.ini"
    path.write_text(
        "[scenario]\nvalidator_count = 2\n"
        "balance_model = explicit:100000000,100000000\n"
    )
    code, out, err = run_main(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "config error:" in err and "MAX/256" in err


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


# Bad inputs, each rejected as a configuration problem.  A config entry
# is written to a file that --config then names.
NOT_UTF8 = b"\xff\xfe[scenario]\nepochs = 2\n"
SWEEP_FILE = (
    b"[scenario]\nepochs = 5\nvalidator_count = 20\n[grid]\nepochs = 1, 2\n"
)
BAD_INPUTS = {
    "pareto-nan": (["simulate"], b"[scenario]\nbalance_model = pareto:nan\n"),
    "pareto-1e-300": (
        ["simulate"], b"[scenario]\nbalance_model = pareto:1e-300\n"
    ),
    "simulate-not-utf8": (["simulate"], NOT_UTF8),
    "sweep-not-utf8": (["sweep"], NOT_UTF8),
    "scenario-percent": (
        ["simulate"], b"[scenario]\nbalance_model = pareto:1%\n"
    ),
    "grid-percent": (
        ["sweep"], b"[scenario]\nepochs = 2\n[grid]\nrng_seed = 1, %(x)s\n"
    ),
    "attack-demo-not-utf8": (["attack-demo"], NOT_UTF8),
    "stake-nan": (["simulate", *BASE, "--stake", "nan"], None),
    "workers-0": (["simulate", *BASE, "--workers", "0"], None),
    "threshold-0": (
        ["simulate", *BASE, "--protocol", "sss", "--threshold", "0"], None
    ),
    "threshold-0-classic": (
        ["simulate", *BASE, "--protocol", "classic", "--threshold", "0"],
        None,
    ),
    # [DEFAULT] is a section like any other, not keys for every section.
    "default-section-simulate": (
        ["simulate"], b"[DEFAULT]\nepochs = 3\nbogus_key = 7\n"
    ),
    "default-section-sweep": (
        ["sweep"],
        b"[DEFAULT]\nepochs = 2\n[scenario]\nvalidator_count = 50\n"
        b"[grid]\nrng_seed = 1, 2\n",
    ),
    # Grid values split at commas, so a grid cannot hold an explicit
    # list of more than one balance.
    "grid-explicit-list": (
        ["sweep"], b"[grid]\nbalance_model = uniform, explicit:1,2\n"
    ),
    "grid-explicit-pair": (
        ["sweep"],
        b"[scenario]\nvalidator_count = 2\n"
        b"[grid]\nbalance_model = explicit:32000000000,32000000000\n",
    ),
    # One key, one home: the grid does not silently override [scenario].
    "sweep-key-in-both-sections": (
        ["sweep"],
        b"[scenario]\nepochs = 5\nvalidator_count = 20\n"
        b"[grid]\nepochs = 1, 2\n",
    ),
    # Only sweep reads [grid]: the other commands refuse it, not ignore it.
    "simulate-grid": (["simulate"], SWEEP_FILE),
    "attack-demo-grid": (["attack-demo"], SWEEP_FILE),
}

# The rows whose message must say more than "config error:".
BAD_INPUT_MESSAGES = {
    "grid-explicit-list": "balance_model: a [grid] value is split at "
                          "commas, so an explicit: list of more than one "
                          "balance belongs in [scenario]",
    "grid-explicit-pair": "a [grid] value is split at commas",
    "sweep-key-in-both-sections": "config error: epochs is set in both "
                                  "[scenario] and [grid]",
    "simulate-grid": "config error: [grid] is read only by sweep",
    "attack-demo-grid": "config error: [grid] is read only by sweep",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2_without_a_traceback(name, tmp_path, capsys):
    argv, config = BAD_INPUTS[name]
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_bytes(config)
        argv = [*argv, "--config", str(path)]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert BAD_INPUT_MESSAGES.get(name, "") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep"], ["attack-demo", "--trial", "0"]],
    ids=["simulate", "sweep", "attack-demo"],
)
def test_config_with_utf8_bom_reads_as_without(argv, tmp_path, capsys):
    # Windows editors start a UTF-8 file with a byte order mark.
    config = b"[scenario]\nepochs = 2\nvalidator_count = 40\n"
    if argv[0] == "sweep":
        config += b"[grid]\nrng_seed = 1, 2\n"
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / "run.ini"
        path.write_bytes(prefix + config)
        code, out, err = run_main([*argv, "--config", str(path)], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] != ""


def test_cap_above_default_exits_2(capsys):
    code, _, err = run_main(["simulate", *BASE, "--cap", "40"], capsys)
    assert code == 2
    assert "config error: strategy_cap" in err


# -- grinding budget -------------------------------------------------------------

@pytest.mark.parametrize(
    "protocol",
    [["--protocol", "classic"], ["--protocol", "sss", "--threshold", "4"]],
    ids=["classic", "sss"],
)
def test_cap_cuts_decision_set_in_both_protocols(protocol, capsys):
    """A lone validator holds every slot: the classic tail and the sss
    flip set are both 32 wide, and both are cut to the cap."""
    code, out, err = run_main(
        ["simulate", *protocol, "--validators", "1", "--stake", "1.0",
         "--cap", "4", "--epochs", "1", "--format", "json"],
        capsys,
    )
    assert code == 0, err
    report = json.loads(out)[0]
    assert report["mean_decision_width"] == 4.0
    withheld, epochs = report["strategy_histogram"].split(":")
    assert int(withheld) <= 4 and epochs == "1"


def test_classic_high_stake_run_completes(capsys):
    code, out, err = run_main(
        ["simulate", "--stake", "0.8", "--epochs", "200", "--seed", "0"],
        capsys,
    )
    assert code == 0, err
    assert len(out.splitlines()) == 2


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


def test_sweep_rows_equal_simulate_of_each_cell(tmp_path, capsys):
    # Only whole cells are checked: the explicit one-balance list is
    # valid with validator_count = 1, not with the base's 200.
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[scenario]\nepochs = 2\n[grid]\n"
        "balance_model = explicit:32000000000\nvalidator_count = 1\n"
        "attacker_stake_fraction = 0.0, 1.0\n"
    )
    code, out, err = run_main(["sweep", "--config", str(path)], capsys)
    assert code == 0, err
    header, *rows = out.splitlines()
    assert len(rows) == 2
    for stake, row in zip(("0.0", "1.0"), rows):
        cell = tmp_path / f"cell-{stake}.ini"
        cell.write_text(
            "[scenario]\nepochs = 2\nbalance_model = explicit:32000000000\n"
            f"validator_count = 1\nattacker_stake_fraction = {stake}\n"
        )
        code, single, _ = run_main(["simulate", "--config", str(cell)], capsys)
        assert code == 0
        assert single.splitlines() == [header, row]


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


def test_attack_demo_names_repeated_reveals(capsys):
    # Flip slots 0-5 have proposers 7, 17, 5, 17, 23, 17: slots 3 and 5
    # repost slot 1's reveal, so the grinder scores 2^4 of the 64 masks.
    code, out, _ = run_main(
        ["attack-demo", "--protocol", "sss", "--validators", "40",
         "--stake", "0.3", "--participation", "0.1", "--threshold", "4",
         "--cap", "6", "--seed", "0", "--trial", "0"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    at = lines.index(
        "flippable origin slots: [0, 1, 2, 3, 4, 5] (2^6 = 64 strategies)"
    )
    assert lines[at + 1] == ("slots repeating an earlier slot's reveal: "
                             "[3, 5] (grind scores 2^4 = 16 mixes)")
    mask_lines = [l for l in lines if l.startswith("  mask ")]
    assert len(mask_lines) == 64
    assert lines[at + 2] == mask_lines[0]


def test_attack_demo_replays_the_trial_under_a_tail_limit(tmp_path, capsys):
    # Trial 1's tail has 5 slots; the config keeps only the last one.
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nvalidator_count = 40\n"
                    "attacker_stake_fraction = 0.7\nrng_seed = 1\n"
                    "tail_limit = 1\n")
    code, out, _ = run_main(
        ["attack-demo", "--config", str(path), "--trial", "1"], capsys
    )
    assert code == 0
    row = classic_trial(load_scenario(str(path)), 1)
    width = row.decision_width
    assert f"(h = {width}, 2^{width} = {1 << width} strategies)" in out
    assert (f"honest payoff {row.honest_payoff}, best {row.payoff} "
            f"(gain {row.payoff - row.honest_payoff})") in out


# (config lines, trials): classic; sss prevented; sss broken with the
# fallback off and on (trial 0: the grinder's best is 11 slots, the
# reused seed's schedule gives 12); sss collusion.
DEMO_GRID = [
    ("validator_count = 40\nattacker_stake_fraction = 0.7\n", range(4)),
    ("protocol = sss\nattacker_stake_fraction = 0.1\n", range(2)),
    ("protocol = sss\nsss_threshold_n = 28\nparticipation_rate = 0.3\n",
     range(2)),
    ("protocol = sss\nsss_threshold_n = 28\nparticipation_rate = 0.3\n"
     "broken_seed_fallback = true\n", range(2)),
    ("protocol = sss\nsss_threshold_n = 4\nparticipation_rate = 0.1\n"
     "validator_count = 40\nstrategy_cap = 4\n", range(2)),
]


def test_attack_demo_payoff_line_is_the_trials_row(tmp_path, capsys):
    cases = set()
    for lines, trials in DEMO_GRID:
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\n" + lines)
        cfg = load_scenario(str(path))
        trial = sss_trial if cfg.protocol == "sss" else classic_trial
        for index in trials:
            code, out, _ = run_main(
                ["attack-demo", "--config", str(path), "--trial",
                 str(index)],
                capsys,
            )
            assert code == 0
            row = trial(cfg, index)
            assert out.splitlines()[-1] == (
                f"honest payoff {row.honest_payoff}, best {row.payoff} "
                f"(gain {row.payoff - row.honest_payoff})"
            )
            fallback = row.case_label == "broken" and cfg.broken_seed_fallback
            assert ("the previous seed is reused" in out) == fallback
            cases.add((row.case_label, cfg.broken_seed_fallback))
    assert cases >= {("", False), ("prevented", False), ("broken", False),
                     ("broken", True), ("collusion", False)}


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


@pytest.mark.parametrize(
    "command",
    [["simulate", "--epochs", "2"], ["attack-demo", "--trial", "0"]],
    ids=["simulate", "attack-demo"],
)
def test_closed_stdout_ends_the_run_quietly(command):
    # As under `randaolab ... | head -1` once head has exited: the output
    # ends there, with exit 0 and nothing on stderr, at exit included.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "randaolab.cli", *command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")


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


# A classic tail of 32 slots against a cap of 4: cut to the cap, exit 0.
_OVER_CAP = (
    ["--protocol", "classic"], ["--epochs", "1"], [], ["--validators", "1"],
    ["--stake", "1.0"], [], [], ["--cap", "4"], [],
)


@settings(max_examples=60, deadline=None)
@example(command="simulate", flags=_OVER_CAP, trial=0)
@example(command="attack-demo", flags=_OVER_CAP, trial=0)
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
    worker; --trial is any int.  A run either completes or is rejected
    as a configuration problem; none fails at run time (exit 1)."""
    argv = [command, *(token for flag in flags for token in flag)]
    if command == "attack-demo":
        argv += ["--trial", str(trial)]
    else:
        argv += ["--workers", "1"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)
