"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every test prints `[criterion N] PASS - <detail>` (or FAIL) through the
capture-disabled channel, so the verdicts reach the terminal even under
default pytest capture.  The long Monte Carlo criteria assert their own
wall-clock budgets.
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from hashlib import sha256

import pytest

from randaolab.adversary import Strategy
from randaolab.cli import main
from randaolab.field import PrimeField
from randaolab.harness import (
    classic_trial_detail,
    run_scenario,
    sss_trial,
    sss_trial_detail,
)
from randaolab.randao import (
    MAX_EFFECTIVE_BALANCE,
    Registry,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from randaolab.scenario import ScenarioConfig
from randaolab.shamir import (
    SssConfig,
    recover,
    secrecy_probe,
    split,
    split_element,
)
from randaolab.threshold_randao import (
    classify_security_case,
    recover_all,
)


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


@contextmanager
def verdict(announce, number: int):
    note = {"detail": "ok"}
    try:
        yield note
    except AssertionError as exc:
        announce(f"[criterion {number}] FAIL - {exc}")
        raise
    announce(f"[criterion {number}] PASS - {note['detail']}")


# -- independent selection / mixing oracle (used by criterion 4) -------------

def _oracle_select(seed: bytes, balances: list[int]) -> list[int]:
    count = len(balances)
    picks = []
    for slot in range(32):
        counter = 0
        while True:
            digest = sha256(
                seed
                + slot.to_bytes(8, "little")
                + counter.to_bytes(8, "little")
            ).digest()
            candidate = int.from_bytes(digest[:8], "big") % count
            if (digest[8] + 1) * (32 * 10**9) <= 256 * balances[candidate]:
                picks.append(candidate)
                break
            counter += 1
    return picks


def _oracle_best_mask(detail, epoch: int) -> tuple[int, int]:
    """Recompute the optimal withhold mask from first principles: find
    the all-attacker tail, then try every subset through raw hashing."""
    proposers = detail.state.proposer_by_slot
    controlled = detail.profile.controlled
    tail = []
    for slot in range(31, -1, -1):
        if proposers[slot] in controlled:
            tail.append(slot)
        else:
            break
    tail.reverse()
    balances = [v.effective_balance for v in detail.registry]

    best_mask, best_payoff = 0, -1
    for mask in range(1 << len(tail)):
        mix = bytes(32)
        for slot in range(32):
            reveal = detail.state.posted[slot]
            if reveal is None:
                continue
            if slot in tail and mask >> tail.index(slot) & 1:
                continue
            mix = bytes(a ^ b for a, b in zip(mix, reveal))
        seed = sha256(
            bytes(4) + epoch.to_bytes(8, "little") + mix
        ).digest()
        payoff = sum(
            1 for v in _oracle_select(seed, balances) if v in controlled
        )
        if payoff > best_payoff:
            best_mask, best_payoff = mask, payoff
    return best_mask, best_payoff


# -- criteria ------------------------------------------------------------------

def test_criterion_1_split_recover_round_trip(announce):
    with verdict(announce, 1) as note:
        start = time.perf_counter()
        rng = random.Random(20260817)
        recoveries = 0
        for _ in range(1000):
            secret = rng.randbytes(32)
            m = rng.randint(1, 31)
            n = rng.randint(1, m)
            cfg = SssConfig(n, m)
            shares = split(secret, cfg, rng)
            if m <= 6:
                subsets = list(itertools.combinations(shares, n))
            else:
                subsets = [rng.sample(shares, n) for _ in range(3)]
            for subset in subsets:
                assert recover(list(subset), cfg) == secret, (
                    f"subset recovery mismatch at n={n} m={m}"
                )
                recoveries += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"round trips took {elapsed:.1f}s, budget 60s"
        note["detail"] = (
            f"1000 random (secret, n, m) splits, {recoveries} subset "
            f"recoveries all exact, {elapsed:.1f}s"
        )


def test_criterion_2_below_threshold_secrecy(announce):
    with verdict(announce, 2) as note:
        field = PrimeField(251)
        rng = random.Random(7)
        observations = 0
        for n in (2, 3):
            for secret in (0, 1, 77, 250):
                cfg = SssConfig(n, 5)
                shares = split_element(field.element(secret), cfg, rng)
                observed = rng.sample(shares, n - 1)
                survivors = [
                    c for c in range(251)
                    if secrecy_probe(observed, cfg, c)
                ]
                assert survivors == list(range(251)), (
                    f"n={n} secret={secret}: only {len(survivors)} of 251 "
                    f"candidates survive {n - 1} shares"
                )
                observations += 1
        note["detail"] = (
            f"{observations} sub-threshold observations over GF(251), "
            f"every one leaves all 251 candidate secrets possible"
        )


def test_criterion_3_strategy_space_size(announce):
    with verdict(announce, 3) as note:
        for h in range(11):
            strategies = [Strategy(mask, h) for mask in range(1 << h)]
            assert len(strategies) == 1 << h, (
                f"h={h}: {len(strategies)} strategies, expected {1 << h}"
            )
            assert [s.withhold_mask for s in strategies] == list(
                range(1 << h)
            ), f"h={h}: masks not exhaustive/ascending"
            assert all(s.width == h for s in strategies)
            # Exhaustive: the masks withhold every subset of the h
            # decision slots once, and no wider mask is a strategy.
            slots = list(range(h))
            subsets = {tuple(s.withheld(slots)) for s in strategies}
            assert len(subsets) == 1 << h, f"h={h}: repeated subsets"
            with pytest.raises(ValueError):
                Strategy(1 << h, h)
        note["detail"] = "2^h strategies, exact and exhaustive, for h = 0..10"


def test_criterion_4_classic_bias_with_audit(announce):
    with verdict(announce, 4) as note:
        start = time.perf_counter()
        cfg = ScenarioConfig(epochs=10000, rng_seed=0)
        report = run_scenario(cfg)
        assert report.fair_share == pytest.approx(9.6, rel=1e-12)
        sigmas = report.bias_gain / report.std_error
        assert report.bias_gain >= 3 * report.std_error, (
            f"bias {report.bias_gain:.4f} is only {sigmas:.1f} sigma over "
            f"fair share {report.fair_share}"
        )
        for index in range(100):
            detail = classic_trial_detail(cfg, index)
            mask, payoff = _oracle_best_mask(detail, index)
            assert mask == detail.outcome.chosen.withhold_mask, (
                f"epoch {index}: oracle mask {mask} != chosen "
                f"{detail.outcome.chosen.withhold_mask}"
            )
            assert payoff == detail.outcome.payoff, (
                f"epoch {index}: oracle payoff {payoff} != "
                f"{detail.outcome.payoff}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
        note["detail"] = (
            f"10000 epochs at stake 0.3: mean {report.mean_attacker_slots:.4f} "
            f"vs fair 9.6, bias +{report.bias_gain:.4f} ({sigmas:.0f} sigma); "
            f"100/100 brute-force audits agree; {elapsed:.0f}s"
        )


def test_criterion_5_sharing_prevents_the_attack(announce):
    with verdict(announce, 5) as note:
        start = time.perf_counter()
        # Headline run in the regime the prevention claim presumes
        # (adversary short of n slots essentially always: at stake 0.1
        # the chance of 16+ attacker slots in an epoch is ~1e-8).
        headline = run_scenario(
            ScenarioConfig(
                protocol="sss",
                attacker_stake_fraction=0.1,
                epochs=10000,
                rng_seed=0,
            )
        )
        assert headline.cases_prevented == 10000, (
            f"only {headline.cases_prevented}/10000 epochs prevented"
        )
        assert headline.cases_broken == 0
        assert headline.cases_collusion == 0
        assert headline.mean_decision_width == 0.0, (
            "adversary found a non-empty flip set in the prevention regime"
        )
        assert headline.recovery_failure_rate == 0.0
        wobble = abs(headline.bias_gain) / headline.std_error
        assert abs(headline.bias_gain) <= 3 * headline.std_error, (
            f"bias {headline.bias_gain:+.4f} is {wobble:.1f} sigma from 0"
        )
        # Companion at stake 0.3: prevention must hold in exactly the
        # epochs where the attacker misses n slots (~98.6% of them), and
        # the rest must classify as collusion, never silent bias.
        cfg = ScenarioConfig(protocol="sss", epochs=2000, rng_seed=0)
        prevented = 0
        for index in range(cfg.epochs):
            row = sss_trial(cfg, index)
            if row.attacker_proposer_slots < cfg.sss_threshold_n:
                assert row.case_label == "prevented", f"epoch {index}"
                assert row.decision_width == 0, f"epoch {index}"
                assert row.payoff == row.honest_payoff, f"epoch {index}"
                prevented += 1
            else:
                assert row.case_label == "collusion", f"epoch {index}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
        note["detail"] = (
            f"stake 0.1 x 10000 epochs: all prevented, zero flip sets, "
            f"bias {headline.bias_gain:+.4f} ({wobble:.1f} sigma from 0); "
            f"stake 0.3 x 2000 epochs: {prevented} sub-threshold epochs all "
            f"prevented with payoff pinned to honest; {elapsed:.0f}s"
        )


def test_criterion_6_breakdown_when_threshold_unmet(announce):
    with verdict(announce, 6) as note:
        cfg = ScenarioConfig(
            protocol="sss",
            attacker_stake_fraction=0.0,
            participation_rate=0.0,
            epochs=300,
            rng_seed=0,
        )
        report = run_scenario(cfg)
        assert report.cases_broken == 300, (
            f"{report.cases_broken}/300 epochs classified broken"
        )
        assert report.cases_prevented == 0
        assert report.cases_collusion == 0
        assert report.recovery_failure_rate == 1.0, (
            f"failure rate {report.recovery_failure_rate}, expected 1.0"
        )
        note["detail"] = (
            "participation 0 forces t = 0 < n: 300/300 epochs broken, "
            "recovery failure rate exactly 1.0"
        )


def test_criterion_7_collusion_regains_bias(announce):
    with verdict(announce, 7) as note:
        start = time.perf_counter()
        cfg = ScenarioConfig(
            protocol="sss",
            sss_threshold_n=4,
            participation_rate=0.1,
            epochs=150,
            rng_seed=0,
        )
        report = run_scenario(cfg)
        sigmas = report.bias_gain / report.std_error
        assert report.bias_gain >= 3 * report.std_error, (
            f"bias {report.bias_gain:.3f} is only {sigmas:.1f} sigma"
        )
        assert report.cases_collusion >= 0.95 * cfg.epochs, (
            f"only {report.cases_collusion}/150 epochs reach collusion"
        )
        assert report.mean_decision_width > 0.0
        for index in range(30):
            row = sss_trial(cfg, index)
            expected = classify_security_case(
                row.joined_slots,
                row.attacker_proposer_slots,
                cfg.sss_threshold_n,
            )
            assert row.case_label == expected, f"epoch {index}"
            if expected == "collusion":
                assert row.payoff >= row.honest_payoff
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
        note["detail"] = (
            f"n=4, stake 0.3, participation 0.1 x 150 epochs: bias "
            f"+{report.bias_gain:.2f} ({sigmas:.0f} sigma), "
            f"{report.cases_collusion}/150 collusion; 30/30 label audits "
            f"agree; {elapsed:.0f}s"
        )


def test_criterion_8_identical_reveals_identical_seeds(announce):
    with verdict(announce, 8) as note:
        start = time.perf_counter()
        cfg_classic = ScenarioConfig(
            attacker_stake_fraction=0.0, epochs=1000, rng_seed=0
        )
        cfg_sss = cfg_classic.replace(protocol="sss")
        sss_cfg = SssConfig(16, 31)
        for index in range(1000):
            classic = classic_trial_detail(cfg_classic, index)
            shared = sss_trial_detail(cfg_sss, index)
            assert shared.per_slot == tuple(classic.state.posted), (
                f"epoch {index}: recovered reveals differ"
            )
            sss_seed = derive_seed(mix_reveals(shared.per_slot), index)
            assert derive_seed(classic.state.mix, index) == sss_seed, (
                f"epoch {index}: seeds differ"
            )
            # The trial takes its reveals from the registry; interpolating
            # the broadcast shares must give the same reveals and seed.
            decoded = recover_all(shared.observed, sss_cfg)
            assert decoded == tuple(classic.state.posted), (
                f"epoch {index}: interpolated reveals differ"
            )
            assert derive_seed(mix_reveals(decoded), index) == sss_seed, (
                f"epoch {index}: interpolated seed differs"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
        note["detail"] = (
            f"1000 epochs, full honesty: threshold recovery from the "
            f"broadcast shares reproduces every classic reveal and seed "
            f"bit for bit; {elapsed:.0f}s"
        )


def test_criterion_9_deterministic_outputs(announce, tmp_path):
    with verdict(announce, 9) as note:
        simulate = [
            "simulate", "--protocol", "sss", "--validators", "60",
            "--stake", "0.25", "--participation", "0.8", "--epochs", "20",
            "--seed", "3", "--format", "csv",
        ]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert main([*simulate, "--out", str(paths[0])]) == 0
        assert main([*simulate, "--out", str(paths[1])]) == 0
        assert main(
            [*simulate, "--workers", "2", "--out", str(paths[2])]
        ) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1], "repeated simulate runs differ"
        assert blobs[0] == blobs[2], "serial and parallel runs differ"

        grid = tmp_path / "grid.ini"
        grid.write_text(
            "[scenario]\n"
            "validator_count = 50\n"
            "epochs = 10\n"
            "[grid]\n"
            "protocol = classic, sss\n"
            "rng_seed = 1, 2\n"
        )
        sweeps = [tmp_path / name for name in ("s1.json", "s2.json")]
        for out in sweeps:
            assert main(
                ["sweep", "--config", str(grid), "--format", "json",
                 "--out", str(out)]
            ) == 0
        assert sweeps[0].read_bytes() == sweeps[1].read_bytes(), (
            "repeated sweep runs differ"
        )
        note["detail"] = (
            "simulate byte-identical across reruns and workers 1 vs 2; "
            "4-cell sweep byte-identical across reruns"
        )


def test_criterion_10_balance_weighted_selection(announce):
    with verdict(announce, 10) as note:
        registry = Registry(
            sha256(b"weight0").digest() + sha256(b"weight1").digest(),
            [MAX_EFFECTIVE_BALANCE // 2, MAX_EFFECTIVE_BALANCE],
        )
        counts = Counter()
        draws = 10000
        for i in range(draws):
            seed = sha256(b"weighting" + i.to_bytes(8, "little")).digest()
            counts.update(select_proposers(seed, registry))
        total = draws * 32
        assert counts[0] + counts[1] == total
        freq = counts[1] / total
        sigma = math.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(freq - 2 / 3) <= 3 * sigma, (
            f"heavy validator frequency {freq:.5f} vs 2/3, "
            f"3 sigma = {3 * sigma:.5f}"
        )
        note["detail"] = (
            f"balances 1:2 over {total} slot draws: heavy validator at "
            f"{freq:.5f} vs 2/3 (|dev| = "
            f"{abs(freq - 2 / 3) / sigma:.2f} sigma)"
        )
