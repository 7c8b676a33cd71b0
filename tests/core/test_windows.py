"""WindowLedger and SenderModel unit behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sender.windows import Liberation, SenderModel, WindowLedger
from repro.packets import ACK, Endpoint
from repro.trace.record import TraceRecord
from repro.tcp.catalog import RENO, SOLARIS_23, TAHOE, get_behavior
from repro.units import seq_diff, seq_gt, seq_lt


def make_record(t, ack, window=65535, payload=0, seq=1):
    return TraceRecord(timestamp=t, src=Endpoint("receiver", 9000),
                       dst=Endpoint("sender", 1024), seq=seq, ack=ack,
                       flags=ACK, payload=payload, window=window)


def data_record(t, seq, payload=512):
    return TraceRecord(timestamp=t, src=Endpoint("sender", 1024),
                       dst=Endpoint("receiver", 9000), seq=seq, ack=1,
                       flags=ACK, payload=payload, window=65535)


def make_model(behavior=RENO, mss=512, offered_window=65535):
    return SenderModel(behavior, mss, iss=0, offered_mss=mss,
                       peer_offered_mss_option=True, start_time=0.0,
                       initial_offered_window=offered_window)


class TestWindowLedger:
    def test_initial_entry(self):
        ledger = WindowLedger(0.0, 1000)
        assert ledger.current_high == 1000
        assert ledger.permissible_since(500) == 0.0

    def test_advance_records_time(self):
        ledger = WindowLedger(0.0, 1000)
        ledger.advance(1.0, 2000)
        assert ledger.permissible_since(1500) == 1.0
        assert ledger.permissible_since(1000) == 0.0

    def test_advance_ignores_non_growth(self):
        ledger = WindowLedger(0.0, 1000)
        ledger.advance(1.0, 900)
        assert ledger.current_high == 1000

    def test_not_permitted_returns_none(self):
        ledger = WindowLedger(0.0, 1000)
        assert ledger.permissible_since(5000) is None

    def test_shrink_removes_entries(self):
        ledger = WindowLedger(0.0, 1000)
        ledger.advance(1.0, 2000)
        ledger.advance(2.0, 3000)
        ledger.shrink(1000)
        assert ledger.current_high == 1000
        assert ledger.permissible_since(1500) is None

    def test_shrink_between_entries_keeps_boundary(self):
        # The boundary stays permissible since the advance that crossed it.
        ledger = WindowLedger(0.0, 1000)
        ledger.advance(1.0, 3000)
        ledger.shrink(2000)
        assert ledger.current_high == 2000
        assert ledger.permissible_since(2000) == 1.0

    def test_regrow_after_shrink_uses_new_time(self):
        ledger = WindowLedger(0.0, 1000)
        ledger.advance(1.0, 3000)
        ledger.shrink(1000)
        ledger.advance(5.0, 2500)
        assert ledger.permissible_since(2000) == 5.0

    def test_shrink_below_first_entry(self):
        ledger = WindowLedger(0.0, 1000)
        ledger.shrink(400)
        assert ledger.current_high == 400
        assert ledger.permissible_since(400) == 0.0


class OracleLedger:
    """The ledger as a plain list with a hand-written binary search:
    the reference the cached-offset ``bisect`` lookup must match."""

    def __init__(self, initial_time, initial_high):
        self.entries = [Liberation(initial_time, initial_high)]

    def advance(self, time, high):
        if seq_gt(high, self.entries[-1].high):
            self.entries.append(Liberation(time, high))

    def shrink(self, high):
        entries = self.entries
        crossed_at = None
        while len(entries) > 1 and seq_gt(entries[-1].high, high):
            crossed_at = entries.pop().time
        if seq_gt(entries[0].high, high):
            entries[0] = Liberation(entries[0].time, high)
        elif crossed_at is not None and seq_lt(entries[-1].high, high):
            entries.append(Liberation(crossed_at, high))

    def permissible_since(self, seq_end):
        entries = self.entries
        base = entries[0].high
        target = seq_diff(seq_end, base)
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if seq_diff(entries[mid].high, base) >= target:
                hi = mid
            else:
                lo = mid + 1
        if lo == len(entries):
            return None
        return entries[lo].time


#: Sequence numbers within 64 KB either side of the 2**32 wrap.
near_wrap = st.integers(min_value=2**32 - 65536,
                        max_value=2**32 + 65535).map(lambda s: s % 2**32)
#: Steps from the current high of up to half the sequence space: a
#: few advances by nearly 2**31 build adversarial ledgers whose
#: entries are not monotone when measured from the first one.
any_step = st.one_of(st.sampled_from([2**31 - 1, 2**30 + 1, 1, -1]),
                     st.integers(min_value=-(2**31), max_value=2**31))
ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("advance"), near_wrap),
    st.tuples(st.just("shrink"), near_wrap),
    st.tuples(st.just("query"), near_wrap),
    st.tuples(st.just("clone"), st.just(0)),
), max_size=60)


class TestLedgerAgainstOracle:
    def run(self, initial, ops, relative=False):
        ledger = WindowLedger(0.0, initial)
        oracle = OracleLedger(0.0, initial)
        originals = []
        for time, (op, seq) in enumerate(ops, start=1):
            if relative:
                seq = (oracle.entries[-1].high + seq) % 2**32
            if op == "advance":
                ledger.advance(float(time), seq)
                oracle.advance(float(time), seq)
            elif op == "shrink":
                ledger.shrink(seq)
                oracle.shrink(seq)
            elif op == "clone":
                # Carry on with the clone; the original must not change.
                originals.append((ledger, list(ledger._entries),
                                  list(ledger._offsets)))
                ledger = ledger.clone()
            assert ledger._entries == oracle.entries
            base = oracle.entries[0].high
            assert ledger._offsets == [seq_diff(e.high, base)
                                       for e in oracle.entries]
            probes = {seq}
            for entry in oracle.entries:
                probes.update(((entry.high - 1) % 2**32, entry.high,
                               (entry.high + 1) % 2**32))
            for probe in probes:
                assert (ledger.permissible_since(probe)
                        == oracle.permissible_since(probe))
            for original, entries, offsets in originals:
                assert original._entries == entries
                assert original._offsets == offsets

    @given(near_wrap, ledger_ops)
    def test_near_the_wrap(self, initial, ops):
        self.run(initial, ops)

    @given(near_wrap, st.lists(st.tuples(
        st.sampled_from(["advance", "shrink", "query"]), any_step),
        max_size=40))
    def test_adversarial_non_monotone(self, initial, ops):
        self.run(initial, ops, relative=True)


class TestSenderModelAcks:
    def test_advance_grows_cwnd_in_slow_start(self):
        model = make_model()
        model.observe_send(data_record(0.1, 1), is_retransmission=False)
        before = model.cwnd
        model.process_ack(make_record(0.2, 513))
        assert model.cwnd == before + model.cwnd_mss
        assert model.snd_una == 513

    def test_duplicate_ack_counted(self):
        model = make_model()
        for i in range(3):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        assert model.process_ack(make_record(0.3, 513)) == "dup"
        assert model.dupacks == 1

    def test_window_update_not_a_dup(self):
        model = make_model()
        model.observe_send(data_record(0.1, 1), is_retransmission=False)
        result = model.process_ack(make_record(0.2, 1, window=32768))
        assert result == "other"
        assert model.dupacks == 0

    def test_three_dups_arm_fast_retransmit(self):
        model = make_model()
        for i in range(5):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        for i in range(3):
            model.process_ack(make_record(0.3 + i * 0.01, 513))
        assert model.expected_fast_rexmit
        assert model.in_fast_recovery          # Reno
        assert model.cwnd == model.ssthresh + 3 * model.cwnd_mss

    def test_tahoe_three_dups_collapse(self):
        model = make_model(TAHOE)
        for i in range(5):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        for i in range(3):
            model.process_ack(make_record(0.3 + i * 0.01, 513))
        assert model.expected_fast_rexmit
        assert not model.in_fast_recovery
        assert model.cwnd == model.cwnd_mss
        assert model.snd_nxt == model.snd_una

    def test_solaris_recovery_disabled_by_bug(self):
        model = make_model(SOLARIS_23)
        for i in range(5):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        for i in range(3):
            model.process_ack(make_record(0.3 + i * 0.01, 513))
        assert not model.in_fast_recovery

    def test_recovery_inflation_beyond_threshold(self):
        model = make_model()
        for i in range(8):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        for i in range(3):
            model.process_ack(make_record(0.3 + i * 0.01, 513))
        inflated = model.cwnd
        model.process_ack(make_record(0.4, 513))
        assert model.cwnd == inflated + model.cwnd_mss


class TestSenderModelTimeout:
    def test_timeout_collapses_window(self):
        model = make_model()
        for i in range(4):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        model.apply_timeout(3.0)
        assert model.cwnd == model.cwnd_mss
        assert model.snd_nxt == model.snd_una

    def test_timeout_backs_off_estimator(self):
        model = make_model()
        model.observe_send(data_record(0.1, 1), is_retransmission=False)
        before = model.estimated_rto()
        model.apply_timeout(3.0)
        assert model.estimated_rto() > before

    def test_ledger_shrinks_on_timeout(self):
        model = make_model()
        for i in range(4):
            model.observe_send(data_record(0.1 + i * 0.01, 1 + 512 * i),
                               is_retransmission=False)
        model.process_ack(make_record(0.2, 513))
        model.apply_timeout(3.0)
        assert model.allowed_high() == model.snd_una + model.cwnd_mss


class TestQuench:
    def test_bsd_quench_slow_start(self):
        model = make_model()
        model.process_ack(make_record(0.1, 1))
        model.cwnd = 8192
        model.apply_quench(1.0)
        assert model.cwnd == model.cwnd_mss

    def test_solaris_quench_halves_ssthresh(self):
        model = make_model(SOLARIS_23)
        model.cwnd = 8192
        model.apply_quench(1.0)
        assert model.cwnd == model.cwnd_mss
        assert model.ssthresh == 4096

    def test_linux_quench_decrements(self):
        model = make_model(get_behavior("linux-1.0"))
        model.cwnd = 4096
        model.apply_quench(1.0)
        assert model.cwnd == 4096 - model.cwnd_mss
