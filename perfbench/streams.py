"""Seeded request streams for the serve workloads.

A stream is an infinite, deterministic sequence of
``(kind, body_bytes, check)`` items built only from ``--seed``: the
same seed always yields byte-identical request bodies.  ``check`` is
the key the correctness checker looks the expected answer up by.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple

from common import GRID_CORE, MODES, job_label

Item = Tuple[str, bytes, str]

#: serve-warm mix by request kind: named simulate / estimate / sweep
WARM_MIX = (("simulate", 0.6), ("estimate", 0.3), ("sweep", 0.1))
#: response-LRU size of the benchmark's daemon; the warm working set
#: (105 distinct requests) is larger, and no request repeats within
#: ``REPEAT_GAP`` positions, so the LRU never answers
LRU_SIZE = 32
REPEAT_GAP = LRU_SIZE + 16

#: serve-cold inline programs: dynamic instruction count range
COLD_MIN_INSTRS = 150
COLD_MAX_INSTRS = 450


def _encode(body: Dict) -> bytes:
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode()


def warm_catalogue(grid: Sequence[Tuple[str, str, int]]
                   ) -> Dict[str, List[Item]]:
    """Every distinct serve-warm request, by kind."""
    catalogue: Dict[str, List[Item]] = {"simulate": [], "estimate": [],
                                        "sweep": []}
    for suite, bench, scale in grid:
        named = {"api": 1, "suite": suite, "bench": bench,
                 "scale": scale}
        for mode in MODES:
            label = job_label(suite, bench, mode)
            body = dict(named, core=GRID_CORE, mode=mode)
            catalogue["simulate"].append(
                ("simulate", _encode(body), label))
            catalogue["estimate"].append(
                ("estimate", _encode(body), label))
        catalogue["sweep"].append(("sweep", _encode(
            dict(named, cores=[GRID_CORE], modes=list(MODES))),
            f"{suite}/{bench}"))
    return catalogue


def warm_stream(seed: int, grid: Sequence[Tuple[str, str, int]]
                ) -> Iterator[Item]:
    """The serve-warm mix: weighted kinds, uniform within a kind, and
    no request repeated within ``REPEAT_GAP`` positions."""
    rng = random.Random(f"warm:{seed}")
    catalogue = warm_catalogue(grid)
    kinds = [kind for kind, _ in WARM_MIX]
    weights = [weight for _, weight in WARM_MIX]
    recent: deque = deque(maxlen=REPEAT_GAP)
    while True:
        kind = rng.choices(kinds, weights)[0]
        choices = [item for item in catalogue[kind]
                   if item[1] not in recent]
        if not choices:
            continue
        item = rng.choice(choices)
        recent.append(item[1])
        yield item


def warm_up_requests(grid: Sequence[Tuple[str, str, int]]
                     ) -> List[Item]:
    """Requests that finish the daemon's lazy imports before timing,
    shaped so their fingerprints never occur in the timed stream."""
    items: List[Item] = []
    for suite, bench, scale in grid[:3]:
        named = {"api": 1, "suite": suite, "bench": bench,
                 "scale": scale}
        items.append(("sweep", _encode(dict(
            named, cores=[GRID_CORE], modes=[MODES[0]])), "warm-up"))
        items.append(("estimate", _encode(dict(
            named, core=GRID_CORE, mode=MODES[1], confidence=0.5)),
            "warm-up"))
    return items


_DP_OPS = ("add", "sub", "eor", "orr", "and", "bic", "rsb")


def cold_program(rng: random.Random, name: str) -> str:
    """A seeded text-asm kernel: a counted loop over a random mix of
    ALU, shifted-operand, multiply, load and store instructions."""
    target = rng.randrange(COLD_MIN_INSTRS, COLD_MAX_INSTRS + 1)
    body_len = rng.randrange(4, 11)
    trips = max(2, (target - 10) // (body_len + 2))
    lines = [f"; {name}", "    mov r0, #0x1000"]
    for reg in range(1, 7):
        lines.append(f"    mov r{reg}, #{rng.randrange(1, 4096)}")
    lines += [f"    mov r7, #{trips}", "loop:"]
    for _ in range(body_len):
        roll = rng.random()
        dst, lhs, rhs = (f"r{rng.randrange(1, 7)}" for _ in range(3))
        if roll < 0.6:
            op = rng.choice(_DP_OPS)
            if rng.random() < 0.5:
                lines.append(f"    {op} {dst}, {lhs}, "
                             f"#{rng.randrange(1, 256)}")
            else:
                lines.append(f"    {op} {dst}, {lhs}, {rhs}, "
                             f"lsl #{rng.randrange(0, 8)}")
        elif roll < 0.75:
            lines.append(f"    mul {dst}, {lhs}, {rhs}")
        elif roll < 0.9:
            lines.append(f"    ldr {dst}, [r0, #{4 * rng.randrange(16)}]")
        else:
            lines.append(f"    str {lhs}, [r0, #{4 * rng.randrange(16)}]")
    words = ", ".join(str(rng.randrange(1 << 16)) for _ in range(16))
    lines += ["    subs r7, r7, #1", "    bne loop", "    halt",
              f".word 0x1000: {words}"]
    return "\n".join(lines) + "\n"


def cold_stream(seed: int) -> Iterator[Item]:
    """The serve-cold stream: every request simulates a program never
    seen before, in a random mode; ``check`` is the program's name."""
    rng = random.Random(f"cold:{seed}")
    index = 0
    while True:
        name = f"pb-{seed}-{index}"
        body = {"api": 1, "asm": cold_program(rng, name), "name": name,
                "core": GRID_CORE, "mode": rng.choice(MODES)}
        index += 1
        yield "simulate", _encode(body), name


def cold_warm_up_requests(seed: int) -> List[Item]:
    """Two throw-away programs (outside the timed stream's names)."""
    rng = random.Random(f"cold-warm-up:{seed}")
    return [("simulate", _encode({
        "api": 1, "asm": cold_program(rng, f"warm-up-{i}"),
        "name": f"warm-up-{i}", "core": GRID_CORE, "mode": mode}),
        "warm-up") for i, mode in enumerate(MODES[:2])]
