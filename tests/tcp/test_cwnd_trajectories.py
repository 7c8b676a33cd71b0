"""Exact congestion-window trajectories.

[BP95] showed the *integer* details of BSD's window arithmetic have
observable consequences, and the whole analyzer depends on
reproducing them exactly.  These tests pin the byte-exact cwnd
evolution of each increase rule and loss response, driving the
analyzer's SenderModel (the shared arithmetic) through scripted ack
sequences.
"""

import pytest

from repro.core.sender.windows import SenderModel
from repro.tcp.catalog import RENO, SOLARIS_23, TAHOE, get_behavior

MSS = 512


def ack_row(t, ack, window=65535):
    """An observed pure ack as the model takes it: time, ack, window,
    payload."""
    return t, ack, window, 0


def sent_row(t, seq, payload=MSS):
    """An observed data send as the model takes it: time, seq, seq_end."""
    return t, seq, (seq + payload) % 2**32


def make_model(behavior):
    return SenderModel(behavior, MSS, iss=0, offered_mss=MSS,
                       peer_offered_mss_option=True, start_time=0.0,
                       initial_offered_window=65535)


def drive(model, acks, send_all=True):
    """Feed an alternating send/ack schedule; return cwnd after each ack."""
    trajectory = []
    time = 0.0
    seq = 1
    for ack in acks:
        while send_all and seq < ack:
            model.observe_send(*sent_row(time, seq), False)
            seq += MSS
            time += 0.001
        model.process_ack(*ack_row(time, ack))
        trajectory.append(model.cwnd)
        time += 0.01
    return trajectory


class TestSlowStart:
    def test_cwnd_doubles_per_ack_batch(self):
        model = make_model(RENO)
        acks = [1 + MSS, 1 + 2 * MSS, 1 + 4 * MSS, 1 + 8 * MSS]
        trajectory = drive(model, acks)
        # Each advancing ack adds exactly one MSS in slow start.
        assert trajectory == [2 * MSS, 3 * MSS, 4 * MSS, 5 * MSS]

    def test_every_implementation_starts_at_one_segment(self):
        for label in ("reno", "tahoe", "linux-1.0", "solaris-2.4"):
            model = make_model(get_behavior(label))
            assert model.cwnd == model.cwnd_mss


class TestCongestionAvoidanceArithmetic:
    """Byte-exact Eqn 1 vs Eqn 2 evolution (§8.1, §8.2)."""

    def force_ca(self, behavior, cwnd):
        model = make_model(behavior)
        model.cwnd = cwnd
        model.ssthresh = MSS          # below cwnd: CA applies
        return model

    def test_eqn1_sequence(self):
        model = self.force_ca(TAHOE, 4 * MSS)
        expected = []
        cwnd = 4 * MSS
        for _ in range(5):
            cwnd = cwnd + (MSS * MSS) // cwnd
            expected.append(cwnd)
        trajectory = drive(model, [1 + (k + 1) * MSS for k in range(5)])
        assert trajectory == expected

    def test_eqn2_sequence(self):
        model = self.force_ca(RENO, 4 * MSS)
        expected = []
        cwnd = 4 * MSS
        for _ in range(5):
            cwnd = cwnd + (MSS * MSS) // cwnd + MSS // 8
            expected.append(cwnd)
        trajectory = drive(model, [1 + (k + 1) * MSS for k in range(5)])
        assert trajectory == expected

    def test_eqn2_exceeds_eqn1_cumulatively(self):
        tahoe_model = self.force_ca(TAHOE, 4 * MSS)
        reno_model = self.force_ca(RENO, 4 * MSS)
        acks = [1 + (k + 1) * MSS for k in range(20)]
        tahoe_trajectory = drive(tahoe_model, acks)
        reno_trajectory = drive(reno_model, acks)
        gaps = [r - t for r, t in zip(reno_trajectory, tahoe_trajectory)]
        # Eqn 2's extra MSS/8 keeps Reno strictly ahead, and the gap
        # widens over the run (super-linear vs linear growth, §8.2).
        assert all(g > 0 for g in gaps)
        assert gaps[-1] > gaps[4]
        assert gaps[-1] >= 15 * (MSS // 8)

    def test_integer_truncation_matters(self):
        # 3 segments: MSS*MSS//cwnd = 512*512//1536 = 170, not 170.67
        model = self.force_ca(TAHOE, 3 * MSS)
        trajectory = drive(model, [1 + MSS])
        assert trajectory == [3 * MSS + 170]


class TestLossResponses:
    def prime(self, behavior, packets=8):
        """Model with `packets` outstanding and cwnd grown accordingly."""
        model = make_model(behavior)
        time = 0.0
        for k in range(packets):
            model.observe_send(*sent_row(time, 1 + k * MSS), False)
            time += 0.001
        model.cwnd = packets * MSS
        return model, time

    def test_reno_fast_retransmit_halves_and_inflates(self):
        model, time = self.prime(RENO)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        # ssthresh = floor(8*512/2 to MSS) = 2048; cwnd = 2048 + 3*512
        assert model.ssthresh == 4 * MSS // 2 * 2  # 2048
        assert model.cwnd == model.ssthresh + 3 * MSS
        assert model.in_fast_recovery

    def test_tahoe_fast_retransmit_collapses(self):
        model, time = self.prime(TAHOE)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        assert model.cwnd == MSS
        assert not model.in_fast_recovery

    def test_recovery_exit_deflates_without_bugs(self):
        from dataclasses import replace
        clean = replace(RENO, header_prediction_bug=False,
                        fencepost_bug=False)
        model, time = self.prime(clean)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        ssthresh = model.ssthresh
        model.process_ack(*ack_row(time + 0.1, 1 + 4 * MSS))
        assert model.cwnd == ssthresh

    def test_header_prediction_bug_skips_deflation(self):
        """[BP95]: the fast path forgets to shrink the window when the
        exiting ack covers everything outstanding."""
        model, time = self.prime(RENO)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        inflated = model.cwnd
        # Ack for ALL outstanding data -> header-prediction path.
        model.process_ack(*ack_row(time + 0.1, model.highest_sent))
        assert model.cwnd == inflated   # never deflated

    def test_fencepost_bug_spares_one_segment(self):
        from dataclasses import replace
        fencepost = replace(RENO, header_prediction_bug=False)
        model, time = self.prime(fencepost)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        # Deflate cwnd manually into the fencepost's blind spot.
        model.cwnd = model.ssthresh + MSS
        model.process_ack(*ack_row(time + 0.1, 1 + 4 * MSS))
        # Within one MSS above ssthresh: the buggy test skips deflation
        # (and the ack's own increase may then apply).
        assert model.cwnd >= model.ssthresh + MSS

    def test_solaris_recovery_bug_collapses_instead(self):
        model, time = self.prime(SOLARIS_23)
        model.process_ack(*ack_row(time, 1 + MSS))
        for i in range(3):
            model.process_ack(*ack_row(time + 0.01 * (i + 1), 1 + MSS))
        assert not model.in_fast_recovery
        assert model.cwnd == model.cwnd_mss

    def test_timeout_response(self):
        model, time = self.prime(RENO)
        model.process_ack(*ack_row(time, 1 + MSS))
        before = model.ssthresh
        model.apply_timeout(time + 2.0)
        assert model.cwnd == MSS
        assert model.ssthresh <= max(before, model.cwnd_mss * 2)
        assert model.snd_nxt == model.snd_una


class TestMssConfusion:
    def test_option_bytes_counted(self):
        """[BP95]'s MSS-confusion: window arithmetic uses MSS+4."""
        confused = get_behavior("hpux-9.05")
        model = make_model(confused)
        assert model.cwnd_mss == MSS + 4
        assert model.cwnd == MSS + 4   # initial cwnd too

    def test_offered_mss_init(self):
        behavior = get_behavior("bsdi-1.1")
        model = SenderModel(behavior, MSS, iss=0, offered_mss=1460,
                            peer_offered_mss_option=True, start_time=0.0,
                            initial_offered_window=65535)
        assert model.cwnd == 1460      # from the offered, not negotiated
