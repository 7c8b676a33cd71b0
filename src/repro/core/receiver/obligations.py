"""Ack obligations: what a receiver owes in response to arriving data.

The paper's receiver analysis (§7) mirrors the sender's data
liberations with *pending ack obligations*: every data arrival incurs
an obligation to acknowledge, either **optional** (in-sequence data —
the TCP may delay, but no more than 500 ms, and must ack at least
every second full-sized segment) or **mandatory** (out-of-sequence
data, old data, a filled hole, a FIN).  An observed ack that
discharges no obligation and changes nothing is *gratuitous* — the
receiver-side analogue of a window violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: RFC 1122's hard ceiling on delayed acks (§4.2.3.2).
MAX_ACK_DELAY = 0.500


@dataclass(slots=True)
class AckObligation:
    """One pending duty to acknowledge."""

    time: float                 # when the obligation was incurred
    mandatory: bool
    reason: str                 # in_sequence / out_of_sequence / old_data /
    #                             hole_fill / fin
    covering_ack: int           # the rcv_nxt an ack must carry to discharge
    new_bytes: int = 0
    #: ``mandatory`` came from the candidate's acking policy, not from
    #: the arrival alone (a hole fill, or in-sequence data with two
    #: full segments unacked).
    policy_dependent: bool = False


@dataclass
class ObligationTracker:
    """The pending-obligation list plus discharge bookkeeping."""

    pending: list[AckObligation] = field(default_factory=list)
    #: Obligations that went undischarged past their deadline.
    missed: list[AckObligation] = field(default_factory=list)
    #: Some policy-dependent obligation was still pending at an
    #: ``expire`` call more than the mandatory deadline after it was
    #: incurred: the only way the policy can change a replay.
    policy_mattered: bool = False

    def incur(self, obligation: AckObligation) -> None:
        self.pending.append(obligation)

    def oldest_pending_time(self) -> float | None:
        return self.pending[0].time if self.pending else None

    def discharge(self, ack_time: float) -> list[AckObligation]:
        """An ack was sent at *ack_time*: everything pending is
        discharged (cumulative acks).  Returns what was discharged."""
        discharged = self.pending
        self.pending = []
        return discharged

    def expire(self, now: float, mandatory_deadline: float) -> None:
        """Move obligations past their deadline to ``missed``.

        Mandatory obligations expire after *mandatory_deadline*
        seconds; optional ones after the RFC's 500 ms."""
        still_pending = []
        for obligation in self.pending:
            age = now - obligation.time
            if obligation.policy_dependent and age > mandatory_deadline:
                self.policy_mattered = True
            deadline = (mandatory_deadline if obligation.mandatory
                        else MAX_ACK_DELAY)
            if age > deadline:
                self.missed.append(obligation)
            else:
                still_pending.append(obligation)
        self.pending = still_pending
