"""Select arbiter: conventional oldest-first and skewed selection (Fig. 9).

The select logic grants functional units to woken reservation-station
entries.  The paper's *skewed* variant prioritises non-speculative
(parent-woken) requests over speculative (grandparent-woken) ones while
preserving age order inside each group, by rewriting each entry's age
mask ("effective mask") before the normal grant circuit runs:

* a P-entry's mask bits for GP-entries are cleared (P never yields to GP),
* a GP-entry's mask bits are set for every requesting P-entry.

With a single global arbitration window this guarantees a GP-woken child
can never be granted while its (P-woken) parent is denied — eliminating
GP-mispeculation (Sec. IV-D).

Implemented both ways: a bit-level model mirroring the paper's circuit
and the equivalent sort-based behavioural model; the tests check that
the two grant alike, skewed and plain.  This module is a model of the
circuit only, and the Sec. IV-D bench compares the two policies on it.
The engines' select stages (``CoreSimulator._schedule`` / ``_gp_phase``
and the compiled replay's ``schedule``) grant inline and call nothing
here: they form GP requests only from parents granted this cycle, after
the oldest-first P pass, so their order is always the skewed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class SelectRequest:
    """One woken RSE requesting a unit."""

    entry: int          # RSE index (arbitrary id)
    age: int            # smaller = older = higher priority
    speculative: bool   # True for GP-woken requests


class AgeMaskTable:
    """Explicit age-mask state as in Fig. 9's selection table.

    ``mask[i]`` has bit ``j`` set when entry *j* is older than entry *i*
    (so *i* must yield to *j*).  Allocation order defines age.
    """

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.valid = [False] * entries
        self.mask = [0] * entries

    def allocate(self, index: int) -> None:
        """Insert a new youngest entry at *index*."""
        if self.valid[index]:
            raise ValueError(f"entry {index} already allocated")
        self.mask[index] = sum(1 << j for j in range(self.entries)
                               if self.valid[j])
        self.valid[index] = True

    def free(self, index: int) -> None:
        if not self.valid[index]:
            raise ValueError(f"entry {index} not allocated")
        self.valid[index] = False
        self.mask[index] = 0
        clear = ~(1 << index)
        for j in range(self.entries):
            if self.valid[j]:
                self.mask[j] &= clear

    # -- grant circuits ---------------------------------------------------

    def grant_conventional(self, wakeup: int) -> int:
        """Fig. 9.a: grant the oldest woken entry; -1 when none request.

        An entry wins when no *woken* entry appears in its age mask:
        ``(wakeup & mask[i]) == 0``.
        """
        for i in range(self.entries):
            if (wakeup >> i) & 1 and (wakeup & self.mask[i]) == 0:
                return i
        return -1

    def effective_masks(self, wakeup: int, p_array: int) -> List[int]:
        """Fig. 9.b: rewrite masks so P-requests dominate GP-requests.

        ``p_array`` bit i = 1 → entry i's request is non-speculative.
        """
        requesting_p = wakeup & p_array
        effective = list(self.mask)
        for i in range(self.entries):
            if not (wakeup >> i) & 1:
                continue
            if (p_array >> i) & 1:
                # P-entry: never yields to speculative entries
                effective[i] &= ~(wakeup & ~p_array)
            else:
                # GP-entry: yields to every requesting P-entry
                effective[i] |= requesting_p & ~(1 << i)
        return effective

    def grant_skewed(self, wakeup: int, p_array: int) -> int:
        """Single skewed grant using the effective-mask circuit."""
        effective = self.effective_masks(wakeup, p_array)
        for i in range(self.entries):
            if (wakeup >> i) & 1 and (wakeup & effective[i]) == 0:
                return i
        return -1


def select_requests(requests: Sequence[SelectRequest], slots: int, *,
                    skewed: bool) -> List[SelectRequest]:
    """Grant up to *slots* requests (the fast behavioural equivalent).

    Skewed order: all non-speculative requests age-ordered, then
    speculative ones age-ordered.  Plain order: pure age.  Matches the
    bit-level circuit grant-for-grant (see tests).
    """
    if skewed:
        ranked = sorted(requests, key=lambda q: (q.speculative, q.age))
    else:
        ranked = sorted(requests, key=lambda q: q.age)
    return ranked[:slots]


def multi_grant_bitlevel(table: AgeMaskTable, wakeup: int, p_array: int,
                         slots: int, *, skewed: bool) -> List[int]:
    """Iterated single-grant circuit → up to *slots* winners."""
    granted: List[int] = []
    remaining = wakeup
    for _ in range(slots):
        if skewed:
            winner = table.grant_skewed(remaining, p_array)
        else:
            winner = table.grant_conventional(remaining)
        if winner < 0:
            break
        granted.append(winner)
        remaining &= ~(1 << winner)
    return granted
