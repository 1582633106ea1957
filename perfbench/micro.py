"""Layer table: isolated per-call timings on fixed inputs.

Each entry is the minimum over REPEATS timeit repeats of NUMBER calls,
divided by NUMBER (and, for the grind mask, by the 2^GRIND_WIDTH masks
one best_strategy call grinds).  Inputs are built from
``trial_rng(seed, 0)``, so a seed fixes them.
"""

from __future__ import annotations

import timeit

REPEATS = 7
GRIND_WIDTH = 6


def micro_table(randaolab, seed: int) -> dict[str, float]:
    """Microseconds per call for each layer's core operation."""
    from randaolab import harness

    rng = harness.trial_rng(seed, 0)
    cfg = randaolab.ScenarioConfig()
    registry = harness.build_registry(cfg, rng)
    mix = rng.randbytes(32)
    seed_bytes = randaolab.derive_seed(mix, 0)
    secret = rng.randbytes(32)
    sss16 = randaolab.SssConfig(16, 31)
    points = [
        (p.x, p.y.value) for p in randaolab.split(secret, sss16, rng)[:16]
    ]

    # A classic epoch whose last GRIND_WIDTH slots are the attacker's,
    # so best_strategy grinds exactly 2^GRIND_WIDTH masks.
    profile = harness.assign_attacker(cfg, registry)
    attacker = sorted(profile.controlled)
    honest = [v.index for v in registry if v.index not in profile.controlled]
    slots = randaolab.SLOTS_PER_EPOCH
    proposers = tuple(
        honest[: slots - GRIND_WIDTH] + attacker[:GRIND_WIDTH]
    )
    state = randaolab.EpochState(0, proposers)
    for slot, index in enumerate(proposers):
        state.post_reveal(slot, randaolab.compute_reveal(registry[index], 0))

    cases = {
        "micro.derive_seed.us": (
            2000, 1, lambda: randaolab.derive_seed(mix, 0)
        ),
        "micro.select_proposers.us": (
            50, 1, lambda: randaolab.select_proposers(seed_bytes, registry)
        ),
        "micro.split.us": (
            20, 1, lambda: randaolab.split(secret, sss16, rng)
        ),
        "micro.interpolate.us": (
            20, 1, lambda: randaolab.FIELD_256.interpolate_at_zero(points)
        ),
        "micro.grind_mask.us": (
            2,
            1 << GRIND_WIDTH,
            lambda: randaolab.best_strategy(state, profile, registry),
        ),
        "micro.build_registry.us": (
            20, 1, lambda: harness.build_registry(cfg, rng)
        ),
    }
    table = {}
    for name, (number, per_call, fn) in cases.items():
        best = min(timeit.Timer(fn).repeat(repeat=REPEATS, number=number))
        table[name] = best / number / per_call * 1e6
    return table
