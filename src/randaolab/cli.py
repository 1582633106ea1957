"""Command line interface.

    randaolab simulate   run one scenario, emit a one-row report
    randaolab sweep      run a config-file grid, emit one row per cell
    randaolab attack-demo  trace one epoch's strategy grinding

Exit codes: 0 success, 2 configuration problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .adversary import Strategy, grind_inputs, mask_payoffs
from .harness import (
    classic_trial_detail,
    emit,
    run_scenario,
    sss_trial_detail,
    sweep,
)
from .scenario import FIELD_PARSERS, PROTOCOLS, ConfigError
from .scenario import load_grid, load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randaolab",
        description=(
            "Randomness-beacon laboratory: last-revealer bias on the "
            "classic XOR beacon and its threshold-sharing variant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", metavar="PATH",
                          help="scenario config file")
    # Each scenario flag's dest is the ScenarioConfig field it overrides,
    # and its type that field's parser.
    for flag, metavar, field in (
        ("--protocol", None, "protocol"),
        ("--epochs", "N", "epochs"),
        ("--seed", "N", "rng_seed"),
        ("--validators", "N", "validator_count"),
        ("--stake", "F", "attacker_stake_fraction"),
        ("--participation", "F", "participation_rate"),
        ("--threshold", "N", "sss_threshold_n"),
        ("--cap", "N", "strategy_cap"),
    ):
        scenario.add_argument(
            flag, type=FIELD_PARSERS[field], metavar=metavar, dest=field,
            choices=PROTOCOLS if field == "protocol" else None, help=field,
        )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH",
                        help="output file (default stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--workers", type=int, default=1, metavar="N")

    sub.add_parser("simulate", parents=[scenario, output],
                   help="run one scenario")
    sweep_cmd = sub.add_parser("sweep", parents=[output],
                               help="run a config-file grid")
    sweep_cmd.add_argument("--config", metavar="PATH", required=True)

    demo = sub.add_parser("attack-demo", parents=[scenario],
                          help="trace one epoch's strategy grinding")
    demo.add_argument("--trial", type=int, default=0, metavar="N",
                      help="trial index to trace")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        field: value
        for field, value in vars(args).items()
        if field in FIELD_PARSERS and value is not None
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config, _overrides(args))
    report = run_scenario(cfg, workers=args.workers)
    emit(report, args.format, args.out if args.out else sys.stdout)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base, axes = load_grid(args.config)
    reports = sweep(base, axes, workers=args.workers)
    emit(reports, args.format, args.out if args.out else sys.stdout)
    return 0


def _mask_bits(mask: int, width: int) -> str:
    return format(mask, f"0{width}b")[::-1] if width else "(empty)"


def _print_masks(detail, index: int, reveals, slots, verb: str) -> None:
    """The slots whose reveal repeats an earlier slot's, which the
    grinder scores once, then one line per mask over `slots`, each
    scored by the grinding kernel on the trial's own inputs."""
    width = len(slots)
    posted = [reveals[s] for s in slots]
    repeats = [s for i, s in enumerate(slots) if posted.index(posted[i]) < i]
    distinct = width - len(repeats)
    print(f"slots repeating an earlier slot's reveal: {repeats} "
          f"(grind scores 2^{distinct} = {1 << distinct} mixes)")
    chosen = detail.outcome.chosen.withhold_mask
    payoffs = mask_payoffs(
        *grind_inputs(reveals, slots),
        index,
        detail.registry,
        detail.profile.controlled,
    )
    for mask, payoff in enumerate(payoffs):
        marker = "  <- chosen" if mask == chosen else ""
        print(f"  mask {_mask_bits(mask, width)} {verb} "
              f"{Strategy(mask, width).withheld(slots)}: "
              f"{payoff} attacker slots in epoch+2{marker}")


def _cmd_attack_demo(args: argparse.Namespace) -> int:
    if not 0 <= args.trial < 2**64:
        raise ConfigError("--trial must be in [0, 2^64)")
    cfg = load_scenario(args.config, _overrides(args))
    index = args.trial
    print(f"scenario: protocol={cfg.protocol} validators="
          f"{cfg.validator_count} stake={cfg.attacker_stake_fraction} "
          f"participation={cfg.participation_rate} seed={cfg.rng_seed} "
          f"trial={index}")
    classic = cfg.protocol == "classic"
    trial_detail = classic_trial_detail if classic else sss_trial_detail
    detail = trial_detail(cfg, index)
    row = detail.row
    print(f"attacker stake achieved: "
          f"{detail.profile.stake_fraction:.4f} "
          f"({len(detail.profile.controlled)} validators)")
    if classic:
        attacker_now = [
            s
            for s, v in enumerate(detail.state.proposer_by_slot)
            if v in detail.profile.controlled
        ]
        print(f"attacker proposer slots this epoch: {attacker_now}")
        h = row.decision_width
        print(f"tail decision slots: {detail.decision_slots} (h = {h}, "
              f"2^{h} = {1 << h} strategies)")
        _print_masks(detail, index, detail.state.posted,
                     detail.decision_slots, "withhold")
    else:
        print(f"joined proposer slots t = {row.joined_slots}, attacker "
              f"slots h = {row.attacker_proposer_slots}, threshold n = "
              f"{cfg.sss_threshold_n}")
        print(f"security case: {row.case_label}")
        width = len(detail.flip_slots)
        print(f"flippable origin slots: {detail.flip_slots} "
              f"(2^{width} = {1 << width} strategies)")
        _print_masks(detail, index, detail.mask0_reveals,
                     detail.flip_slots, "suppress")
        unrecoverable = [
            s for s, r in enumerate(detail.per_slot) if r is None
        ]
        print(f"unrecoverable slots after attack: {unrecoverable}")
        if row.case_label == "broken" and cfg.broken_seed_fallback:
            print("broken epoch under broken_seed_fallback: the previous "
                  "seed is reused; no mask above takes effect")
    print(f"honest payoff {row.honest_payoff}, best {row.payoff} "
          f"(gain {row.payoff - row.honest_payoff})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers must be >= 1")
        run = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
               "attack-demo": _cmd_attack_demo}[args.command]
        code = run(args)
        # A closed stdout raises here, not in the flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone, so the output ends here.  Stdout's file
        # now points at devnull, and the flush at exit writes nothing.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        # EmitError and SelectionError are RuntimeErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
