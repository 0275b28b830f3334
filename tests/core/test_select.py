"""Unit tests for the select arbiter (conventional + skewed, Fig. 9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.select import (
    AgeMaskTable,
    SelectRequest,
    multi_grant_bitlevel,
    select_requests,
)


def make_table(n=4, order=None):
    """Table with entries allocated in `order` (defines age)."""
    table = AgeMaskTable(n)
    for idx in order or range(n):
        table.allocate(idx)
    return table


class TestAgeMaskTable:
    def test_allocation_builds_masks(self):
        table = make_table(4)  # allocated 0,1,2,3 in order
        assert table.mask[0] == 0b0000
        assert table.mask[1] == 0b0001
        assert table.mask[3] == 0b0111

    def test_out_of_order_allocation(self):
        table = make_table(4, order=[2, 0, 3, 1])
        # entry 2 is oldest: empty mask; entry 1 is youngest
        assert table.mask[2] == 0
        assert table.mask[1] == 0b1101

    def test_free_clears_bit_everywhere(self):
        table = make_table(4)
        table.free(0)
        assert all((table.mask[j] & 1) == 0 for j in range(4))

    def test_double_allocate_rejected(self):
        table = make_table(2)
        with pytest.raises(ValueError):
            table.allocate(0)

    def test_free_unallocated_rejected(self):
        table = AgeMaskTable(2)
        with pytest.raises(ValueError):
            table.free(0)


class TestConventionalGrant:
    def test_oldest_woken_wins(self):
        table = make_table(4)
        # paper's example: entries 1,2,3 woken; 3's mask would be 0111 but
        # only woken entries matter; oldest woken is 1
        assert table.grant_conventional(0b1110) == 1

    def test_fig9a_example(self):
        """Fig. 9.a: ages such that entry 3 is highest-priority awake."""
        table = make_table(4, order=[0, 3, 1, 2])  # 0 oldest, then 3, 1, 2
        # wakeup = entries 1,2,3 -> oldest woken is 3
        assert table.grant_conventional(0b1110) == 3

    def test_no_request_no_grant(self):
        assert make_table(4).grant_conventional(0) == -1


class TestSkewedGrant:
    def test_fig9b_example(self):
        """Fig. 9.b: entry 2 is the only P request among woken 1,2,3 and
        wins despite being younger than 3."""
        table = make_table(4, order=[0, 3, 1, 2])
        wakeup = 0b1110
        p_array = 0b0100  # only entry 2 is non-speculative
        assert table.grant_skewed(wakeup, p_array) == 2

    def test_all_p_matches_conventional(self):
        table = make_table(4, order=[0, 3, 1, 2])
        wakeup = 0b1110
        assert (table.grant_skewed(wakeup, 0b1111)
                == table.grant_conventional(wakeup))

    def test_all_gp_preserves_age_order(self):
        table = make_table(4, order=[0, 3, 1, 2])
        wakeup = 0b1110
        assert (table.grant_skewed(wakeup, 0b0000)
                == table.grant_conventional(wakeup))

    def test_gp_never_beats_p(self):
        table = make_table(4)
        # entry 0 oldest but speculative; entry 3 youngest but P
        assert table.grant_skewed(0b1001, 0b1000) == 3


class TestMultiGrant:
    def test_grants_in_priority_order(self):
        table = make_table(4)
        granted = multi_grant_bitlevel(table, 0b1111, 0b1111, 2,
                                       skewed=True)
        assert granted == [0, 1]

    def test_p_requests_first_then_gp(self):
        table = make_table(4)
        # entries 0,1 speculative; 2,3 non-speculative
        granted = multi_grant_bitlevel(table, 0b1111, 0b1100, 3,
                                       skewed=True)
        assert granted == [2, 3, 0]

    def test_slots_limit(self):
        table = make_table(4)
        assert len(multi_grant_bitlevel(table, 0b1111, 0b1111, 1,
                                        skewed=True)) == 1


@st.composite
def windows(draw):
    """One request window: per entry (woken, non-speculative) flags, and
    the allocation order that sets the entries' ages."""
    entry_bits = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                               min_size=1, max_size=8))
    order = draw(st.permutations(range(len(entry_bits))))
    return entry_bits, order


SLOTS = st.integers(min_value=1, max_value=8)


def build_window(entry_bits, order):
    """The circuit's (table, wakeup, p_array) and the behavioural model's
    requests for one window."""
    table = make_table(len(entry_bits), order)
    wakeup = 0
    p_array = 0
    requests = []
    for age, i in enumerate(order):
        woken, is_p = entry_bits[i]
        if woken:
            wakeup |= 1 << i
            if is_p:
                p_array |= 1 << i
            requests.append(SelectRequest(entry=i, age=age,
                                          speculative=not is_p))
    return table, wakeup, p_array, requests


def grants(entry_bits, order, slots, skewed):
    """(circuit grants, behavioural grants) as entry lists."""
    table, wakeup, p_array, requests = build_window(entry_bits, order)
    circuit = multi_grant_bitlevel(table, wakeup, p_array, slots,
                                   skewed=skewed)
    fast = [q.entry for q in select_requests(requests, slots,
                                             skewed=skewed)]
    return circuit, fast


class TestBehaviouralEquivalence:
    @given(windows(), SLOTS)
    @settings(max_examples=200)
    def test_fast_path_matches_circuit(self, window, slots):
        """select_requests == the bit-level effective-mask circuit."""
        circuit, fast = grants(*window, slots, skewed=True)
        assert circuit == fast

    @given(windows(), SLOTS)
    @settings(max_examples=100)
    def test_unskewed_equivalence(self, window, slots):
        """Plain (pure-age) select: the circuit ignores the P flags, and
        so does the behavioural model."""
        circuit, fast = grants(*window, slots, skewed=False)
        assert circuit == fast

    @given(windows(), SLOTS)
    @settings(max_examples=200)
    def test_skew_invariant_no_p_starves(self, window, slots):
        """Skewed select never grants a GP request over a pending P
        request: while any P request is denied, every grant is a P."""
        *_, requests = build_window(*window)
        p_entries = {q.entry for q in requests if not q.speculative}
        for granted in grants(*window, slots, skewed=True):
            if not p_entries <= set(granted):
                assert set(granted) <= p_entries
