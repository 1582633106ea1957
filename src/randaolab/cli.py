"""Command line interface.

    randaolab simulate   run one scenario, emit a one-row report
    randaolab sweep      run a config-file grid, emit one row per cell
    randaolab attack-demo  trace one epoch's strategy grinding

Exit codes: 0 success, 2 configuration problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .adversary import Strategy, grind_inputs, mask_payoffs
from .harness import (
    EmitError,
    classic_trial_detail,
    emit,
    run_scenario,
    sss_trial_detail,
    sweep,
)
from .scenario import ConfigError, load_grid, load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randaolab",
        description=(
            "Randomness-beacon laboratory: last-revealer bias on the "
            "classic XOR beacon and its threshold-sharing variant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        p.add_argument("--protocol", choices=("classic", "sss"))
        p.add_argument("--epochs", type=int, metavar="N")
        p.add_argument("--seed", type=int, metavar="N", help="rng_seed")
        p.add_argument("--validators", type=int, metavar="N",
                       help="validator_count")
        p.add_argument("--stake", type=float, metavar="F",
                       help="attacker_stake_fraction")
        p.add_argument("--participation", type=float, metavar="F",
                       help="participation_rate")
        p.add_argument("--threshold", type=int, metavar="N",
                       help="sss_threshold_n")
        p.add_argument("--cap", type=int, metavar="N", help="strategy_cap")

    simulate = sub.add_parser("simulate", help="run one scenario")
    add_scenario_flags(simulate)
    simulate.add_argument("--out", metavar="PATH",
                          help="output file (default stdout)")
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument("--workers", type=int, default=1, metavar="N")

    sweep_cmd = sub.add_parser("sweep", help="run a config-file grid")
    sweep_cmd.add_argument("--config", metavar="PATH", required=True)
    sweep_cmd.add_argument("--out", metavar="PATH")
    sweep_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_cmd.add_argument("--workers", type=int, default=1, metavar="N")

    demo = sub.add_parser(
        "attack-demo", help="trace one epoch's strategy grinding"
    )
    add_scenario_flags(demo)
    demo.add_argument("--trial", type=int, default=0, metavar="N",
                      help="trial index to trace")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    mapping = {
        "protocol": "protocol",
        "epochs": "epochs",
        "seed": "rng_seed",
        "validators": "validator_count",
        "stake": "attacker_stake_fraction",
        "participation": "participation_rate",
        "threshold": "sss_threshold_n",
        "cap": "strategy_cap",
    }
    out = {}
    for flag, field in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            out[field] = value
    return out


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
    """One line per mask over `slots`, each scored by the grinding
    kernel on the trial's own inputs."""
    width = len(slots)
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
    overrides = _overrides(args)
    overrides["tail_limit"] = None
    cfg = load_scenario(args.config, overrides)
    index = args.trial
    print(f"scenario: protocol={cfg.protocol} validators="
          f"{cfg.validator_count} stake={cfg.attacker_stake_fraction} "
          f"participation={cfg.participation_rate} seed={cfg.rng_seed} "
          f"trial={index}")
    if cfg.protocol == "classic":
        detail = classic_trial_detail(cfg, index)
    else:
        detail = sss_trial_detail(cfg, index)
    print(f"attacker stake achieved: "
          f"{detail.profile.stake_fraction:.4f} "
          f"({len(detail.profile.controlled)} validators)")
    if cfg.protocol == "classic":
        attacker_now = [
            s
            for s, v in enumerate(detail.state.proposer_by_slot)
            if v in detail.profile.controlled
        ]
        print(f"attacker proposer slots this epoch: {attacker_now}")
        h = len(detail.decision_slots)
        print(f"tail decision slots: {detail.decision_slots} (h = {h}, "
              f"2^{h} = {1 << h} strategies)")
        _print_masks(detail, index, detail.state.posted,
                     detail.decision_slots, "withhold")
    else:
        print(f"joined proposer slots t = {detail.observed.t}, attacker "
              f"slots h = {detail.h_slots}, threshold n = "
              f"{cfg.sss_threshold_n}")
        print(f"security case: {detail.case.value}")
        width = len(detail.flip_slots)
        print(f"flippable origin slots: {detail.flip_slots} "
              f"(2^{width} = {1 << width} strategies)")
        _print_masks(detail, index, detail.mask0_reveals,
                     detail.flip_slots, "suppress")
        unrecoverable = [
            s for s, r in enumerate(detail.recovery.per_slot) if r is None
        ]
        print(f"unrecoverable slots after attack: {unrecoverable}")
    print(f"honest payoff {detail.outcome.honest_payoff}, best "
          f"{detail.outcome.payoff} "
          f"(gain {detail.outcome.payoff - detail.outcome.honest_payoff})")
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
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_attack_demo(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
