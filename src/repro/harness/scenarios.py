"""Transfer scenarios: named network paths plus a traced-transfer helper.

A :class:`Scenario` captures path characteristics matching the kinds
of Internet paths in the paper's study: campus LAN, cross-country WAN,
the high-latency trans-Atlantic paths where Solaris's timer pathology
bites (§8.6), slow modem-grade links where ack-timer policy matters
(§9.1), and lossy variants of each.

:func:`traced_transfer` runs a bulk transfer with packet filters at
both endpoints and returns the transfer result plus both traces —
the unit of measurement of the entire study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.tcp.params import TCPBehavior
from repro.trace.record import Trace
from repro.units import kbit, kbyte, mbit

if TYPE_CHECKING:
    # The simulator loads when a transfer runs, not with SCENARIOS.
    from repro.capture.filter import PacketFilter
    from repro.netsim.link import LossModel
    from repro.tcp.connection import TransferResult


@dataclass(frozen=True)
class Scenario:
    """A named network path configuration.

    The reverse-path and cross-traffic fields model the adversarial
    path shapes the fuzz layer composes: an asymmetric return channel
    (ADSL-style thin upstream, where the ack stream itself congests
    and thins), loss on the ack channel alone, and bursty competing
    traffic on the forward bottleneck (the queue oscillations that
    make real-path timestamps noisy).
    """

    name: str
    bottleneck_bandwidth: float = mbit(1.0)
    bottleneck_delay: float = 0.020     # one-way; RTT ≈ 2*(this + access)
    queue_limit: int = 64
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    # Asymmetric return path; None mirrors the forward bottleneck.
    reverse_bandwidth: float | None = None
    reverse_delay: float | None = None
    ack_drop_rate: float = 0.0          # loss on the ack channel only
    # Competing traffic on the forward bottleneck (bytes/s of offered
    # load; on/off make it bursty rather than constant-rate).
    cross_traffic_rate: float = 0.0
    cross_traffic_on: float | None = None
    cross_traffic_off: float | None = None
    description: str = ""

    def forward_loss(self, seed: int = 0) -> LossModel | None:
        if self.drop_rate == 0.0 and self.corrupt_rate == 0.0:
            return None
        from repro.netsim.link import RandomLoss
        return RandomLoss(self.drop_rate, self.corrupt_rate, seed=seed)

    def reverse_loss(self, seed: int = 0) -> LossModel | None:
        if self.ack_drop_rate == 0.0:
            return None
        from repro.netsim.link import RandomLoss
        # Offset the seed so forward and reverse losses decorrelate.
        return RandomLoss(self.ack_drop_rate, seed=seed + 0x5EED)

    @property
    def rtt(self) -> float:
        return 2 * (self.bottleneck_delay + 0.0005)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("lan", bottleneck_bandwidth=mbit(10.0),
                 bottleneck_delay=0.001,
                 description="local Ethernet, ~3 ms RTT"),
        Scenario("wan", bottleneck_bandwidth=mbit(1.0),
                 bottleneck_delay=0.035,
                 description="cross-country path, ~70 ms RTT"),
        Scenario("wan-lossy", bottleneck_bandwidth=mbit(1.0),
                 bottleneck_delay=0.035, drop_rate=0.03,
                 description="cross-country path with 3% loss"),
        Scenario("transatlantic", bottleneck_bandwidth=kbit(512),
                 bottleneck_delay=0.339,
                 description="California-Netherlands, ~680 ms RTT (Fig 5)"),
        Scenario("satellite", bottleneck_bandwidth=kbit(256),
                 bottleneck_delay=1.3,
                 description="2.6 s minimum RTT (the §8.6 worst case)"),
        Scenario("modem-56k", bottleneck_bandwidth=kbit(56),
                 bottleneck_delay=0.050,
                 description="56 kbit/s access, the §9.1 delayed-ack regime"),
        Scenario("modem-64k", bottleneck_bandwidth=kbit(64),
                 bottleneck_delay=0.050,
                 description="64 kbit/s access"),
        Scenario("lossy-corrupting", bottleneck_bandwidth=mbit(1.0),
                 bottleneck_delay=0.035, drop_rate=0.02, corrupt_rate=0.01,
                 description="loss plus checksum corruption (§7)"),
        Scenario("adsl-asymmetric", bottleneck_bandwidth=mbit(1.5),
                 bottleneck_delay=0.025,
                 reverse_bandwidth=kbit(128), reverse_delay=0.025,
                 queue_limit=24,
                 description="thin upstream: the ack channel congests"),
        Scenario("ack-lossy", bottleneck_bandwidth=mbit(1.0),
                 bottleneck_delay=0.035, ack_drop_rate=0.10,
                 description="10% loss on the return path alone "
                 "(ack-thinned arrivals)"),
        Scenario("congested", bottleneck_bandwidth=mbit(1.0),
                 bottleneck_delay=0.035, queue_limit=32,
                 cross_traffic_rate=60000.0,
                 cross_traffic_on=0.5, cross_traffic_off=0.5,
                 description="bursty competing traffic on the "
                 "bottleneck queue"),
    )
}


@dataclass
class TracedTransfer:
    """A transfer's outcome together with its two endpoint traces."""

    result: TransferResult
    sender_trace: Trace
    receiver_trace: Trace
    scenario: Scenario | None = None
    seed: int = 0


def traced_transfer(behavior: TCPBehavior,
                    scenario: Scenario | str = "wan",
                    receiver_behavior: TCPBehavior | None = None,
                    data_size: int = kbyte(100),
                    mss: int = 512,
                    seed: int = 0,
                    sender_filter: PacketFilter | None = None,
                    receiver_filter: PacketFilter | None = None,
                    sender_window: int | None = None,
                    receiver_buffer: int = 65535,
                    consume_rate: float | None = None,
                    heartbeat_phase: float = 0.0,
                    quench_threshold: int | None = None,
                    max_duration: float = 600.0) -> TracedTransfer:
    """Run one bulk transfer on *scenario* with filters at both ends.

    Pass pre-configured :class:`PacketFilter` objects to inject
    measurement errors; by default both filters are perfect.
    """
    from repro.capture.filter import attach_filter_pair
    from repro.netsim.engine import Engine
    from repro.netsim.network import build_path
    from repro.tcp.connection import run_bulk_transfer

    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    engine = Engine()
    path = build_path(engine,
                      bottleneck_bandwidth=scenario.bottleneck_bandwidth,
                      bottleneck_delay=scenario.bottleneck_delay,
                      queue_limit=scenario.queue_limit,
                      forward_loss=scenario.forward_loss(seed),
                      reverse_loss=scenario.reverse_loss(seed),
                      reverse_bottleneck_bandwidth=scenario.reverse_bandwidth,
                      reverse_bottleneck_delay=scenario.reverse_delay,
                      quench_threshold=quench_threshold)
    if scenario.cross_traffic_rate > 0.0:
        from repro.netsim.crosstraffic import CrossTrafficSource
        CrossTrafficSource(engine, path.forward_bottleneck,
                           rate=scenario.cross_traffic_rate,
                           on_time=scenario.cross_traffic_on,
                           off_time=scenario.cross_traffic_off).start()
    sender_filter, receiver_filter = attach_filter_pair(
        path, sender_filter, receiver_filter)
    result = run_bulk_transfer(behavior, receiver_behavior,
                               data_size=data_size, mss=mss,
                               sender_window=sender_window,
                               receiver_buffer=receiver_buffer,
                               consume_rate=consume_rate,
                               heartbeat_phase=heartbeat_phase,
                               max_duration=max_duration,
                               path=path)
    return TracedTransfer(result=result,
                          sender_trace=sender_filter.trace(),
                          receiver_trace=receiver_filter.trace(),
                          scenario=scenario, seed=seed)
