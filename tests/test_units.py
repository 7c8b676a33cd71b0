"""Sequence-space arithmetic and unit helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.units import (
    SEQ_SPACE,
    seq_add,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
    seq_max,
    seq_min,
)

seqs = st.integers(min_value=0, max_value=SEQ_SPACE - 1)
small = st.integers(min_value=-(2**30), max_value=2**30)


class TestConversions:
    def test_kbit(self):
        assert units.kbit(56) == 7000.0

    def test_mbit(self):
        assert units.mbit(1) == 125000.0

    def test_kbyte_uses_powers_of_two(self):
        assert units.kbyte(100) == 102400

    def test_msec(self):
        assert units.msec(200) == pytest.approx(0.2)

    def test_usec(self):
        assert units.usec(300) == pytest.approx(3e-4)


class TestSequenceArithmetic:
    def test_add_wraps(self):
        assert seq_add(SEQ_SPACE - 1, 2) == 1

    def test_diff_simple(self):
        assert seq_diff(1500, 1000) == 500

    def test_diff_across_wrap(self):
        assert seq_diff(10, SEQ_SPACE - 10) == 20

    def test_diff_negative(self):
        assert seq_diff(1000, 1500) == -500

    def test_lt_across_wrap(self):
        assert seq_lt(SEQ_SPACE - 5, 5)

    def test_ordering_basics(self):
        assert seq_lt(1, 2)
        assert seq_le(2, 2)
        assert seq_gt(3, 2)
        assert seq_ge(3, 3)
        assert not seq_lt(2, 2)

    def test_min_max(self):
        assert seq_max(SEQ_SPACE - 5, 5) == 5
        assert seq_min(SEQ_SPACE - 5, 5) == SEQ_SPACE - 5

    @given(seqs, small)
    def test_add_then_diff_roundtrips(self, seq, delta):
        assert seq_diff(seq_add(seq, delta), seq) == delta

    @given(seqs, seqs)
    def test_diff_antisymmetric(self, a, b):
        if seq_diff(a, b) != -(SEQ_SPACE // 2):
            assert seq_diff(a, b) == -seq_diff(b, a)

    @given(seqs, seqs)
    def test_total_order_consistent(self, a, b):
        assert seq_le(a, b) == (seq_lt(a, b) or a == b)
        assert seq_gt(a, b) == seq_lt(b, a)

    @given(seqs, seqs)
    def test_min_max_complementary(self, a, b):
        assert {seq_min(a, b), seq_max(a, b)} == {a, b}


anything = st.integers()   # negatives and values >= 2**32 included
#: Distances at and around the half-space and full-space boundaries.
boundary_deltas = st.sampled_from([
    -SEQ_SPACE, -(2**31) - 1, -(2**31), -(2**31) + 1, -1, 0, 1,
    2**31 - 1, 2**31, 2**31 + 1, SEQ_SPACE])


def assert_comparisons_match_seq_diff(a, b):
    diff = seq_diff(a, b)
    assert seq_lt(a, b) == (diff < 0)
    assert seq_le(a, b) == (diff <= 0)
    assert seq_gt(a, b) == (diff > 0)
    assert seq_ge(a, b) == (diff >= 0)


class TestComparisonsMatchSeqDiff:
    """The comparisons skip the seq_diff call; they must agree with
    its sign for every pair of ints, not just valid sequence numbers."""

    @given(anything, anything)
    def test_arbitrary_ints(self, a, b):
        assert_comparisons_match_seq_diff(a, b)

    @given(anything, boundary_deltas)
    def test_half_space_boundaries(self, b, delta):
        assert_comparisons_match_seq_diff(b + delta, b)
