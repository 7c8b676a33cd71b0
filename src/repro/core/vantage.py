"""Vantage-point determination.

Several calibration checks are only valid at one end of the connection
(§3.1.1): a sequence gap proves filter drops at the *sender* but is an
ordinary network drop at the receiver; an unprovoked dup ack proves
drops at the *receiver* but is meaningless at the sender.  The trace's
metadata usually says where the filter sat; when it does not, the
vantage is inferable from response timing: at the sender's vantage,
data packets chase arriving acks within the kernel's sub-millisecond
response delay, while at the receiver's, acks chase arriving data.
"""

from __future__ import annotations

import numpy as np

from repro.trace.record import Trace

#: A response gap below this is "kernel-speed": the responder is local.
LOCAL_RESPONSE = 0.002


def infer_vantage(trace: Trace) -> str:
    """Return ``"sender"`` or ``"receiver"`` for *trace*.

    Uses the trace's own ``vantage`` metadata when present; otherwise
    measures which endpoint responds at kernel speed.
    """
    if trace.vantage in ("sender", "receiver"):
        return trace.vantage
    try:
        flow = trace.primary_flow()
    except ValueError:
        return "sender"
    columns = trace.columns()
    ids = columns.flow_ids
    fid = columns.flow_id(flow)
    inbound_ack = (ids == columns.reverse_id(fid)) & columns.has_ack
    outbound_data = (ids == fid) & columns.is_data
    gap = np.diff(columns.timestamp)
    local = (gap >= 0) & (gap <= LOCAL_RESPONSE)
    ack_to_data = int(np.count_nonzero(
        local & inbound_ack[:-1] & outbound_data[1:]))
    data_to_ack = int(np.count_nonzero(
        local & outbound_data[:-1] & inbound_ack[1:]))
    return "sender" if ack_to_data >= data_to_ack else "receiver"
