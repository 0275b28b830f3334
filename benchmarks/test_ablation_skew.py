"""Sec. IV-D ablation — skewed vs plain select arbitration, on the circuit.

Skewed selection (Fig. 9.b) lets every conventional request (woken by a
parent, "P") beat every speculative one (woken by a grandparent, "GP").
Under global arbitration a GP-woken child then can never be granted
while a P request, its parent among them, is denied: GP-mispeculation
cannot happen.  Plain oldest-first arbitration (Fig. 9.a) grants by age
alone, so an old GP request can take a slot that a younger P request
loses.

The engines have no plain arm to ablate.  Both form GP requests only
from parents granted this cycle, after the oldest-first P pass, and give
them only the units that pass left, so their order is the skewed one by
construction.  The ablation therefore runs on ``core.select``, the model
of the Fig. 9 circuit: seeded random request windows, granted under both
policies by the bit-level circuit and by the behavioural model.  It
simulates nothing.
"""

import random

from repro.analysis.report import print_table
from repro.core.select import (
    AgeMaskTable,
    SelectRequest,
    multi_grant_bitlevel,
    select_requests,
)

WINDOWS = 2000
ENTRIES = 8
GRANTS = (1, 2, 4)
SEED = 0


def random_window(rng):
    """One window: a random allocation order (which sets age), and per
    entry a random wakeup bit and P/GP flag."""
    order = rng.sample(range(ENTRIES), ENTRIES)
    table = AgeMaskTable(ENTRIES)
    for index in order:
        table.allocate(index)
    wakeup = rng.getrandbits(ENTRIES)
    p_array = rng.getrandbits(ENTRIES)
    requests = [SelectRequest(entry=index, age=age,
                              speculative=not (p_array >> index) & 1)
                for age, index in enumerate(order)
                if (wakeup >> index) & 1]
    return table, wakeup, p_array, requests


def gp_over_p(granted, requests):
    """Did a GP request win a slot that a P request lost?"""
    won = set(granted)
    return (any(q.speculative and q.entry in won for q in requests)
            and any(not q.speculative and q.entry not in won
                    for q in requests))


def generate_comparison():
    """Per grant count: GP-over-P windows under each policy, and the
    (window, policy) pairs on which circuit and model grant alike."""
    rng = random.Random(SEED)
    windows = [random_window(rng) for _ in range(WINDOWS)]
    rows = []
    for slots in GRANTS:
        gp_wins = {True: 0, False: 0}
        agree = 0
        for table, wakeup, p_array, requests in windows:
            for skewed in (True, False):
                circuit = multi_grant_bitlevel(table, wakeup, p_array,
                                               slots, skewed=skewed)
                model = [q.entry for q in select_requests(
                    requests, slots, skewed=skewed)]
                agree += circuit == model
                gp_wins[skewed] += gp_over_p(circuit, requests)
        rows.append((slots, gp_wins[True], gp_wins[False], agree))
    return rows


def test_ablation_select_skew(bench_once):
    rows = bench_once(generate_comparison)
    print_table(f"Ablation: skewed vs plain selection ({WINDOWS} "
                f"{ENTRIES}-entry windows, Fig. 9 circuit)",
                ["grants", "GP over P (skewed)", "GP over P (plain)",
                 "circuit = model"],
                [(slots, skewed, plain, f"{agree}/{2 * WINDOWS}")
                 for slots, skewed, plain, agree in rows])

    for slots, skewed, plain, agree in rows:
        # skewed selection never lets a GP request take a P request's slot
        assert skewed == 0, slots
        # plain age order does, on random windows
        assert plain > 0, slots
        # the bit-level circuit grants what the behavioural model grants
        assert agree == 2 * WINDOWS, slots
