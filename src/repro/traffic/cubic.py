"""TCP Cubic congestion-control model (the iperf3 workload of §6.1.1).

Bufferbloat needs a loss-based congestion controller that "cannot
differentiate between the propagation time and the large sojourn time
that packets experience in a bloated buffer" (§6.1.1).  This model
implements Cubic's window dynamics (RFC 8312): cubic window growth
between loss events, multiplicative decrease on loss, and
ACK-clocked transmission where the ACK of a packet returns one
modelled uplink delay after the downlink stack delivers it.  Driving
this sender into a finite RLC buffer reproduces the feedback loop of
Fig. 11a: the window grows until the buffer overflows, so the buffer
stays near-full and every co-queued flow inherits hundreds of
milliseconds of sojourn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.simclock import SimClock
from repro.traffic.flows import FiveTuple, FlowStats, Packet


@dataclass
class CubicState:
    """Cubic window variables (RFC 8312 notation, window in packets)."""

    cwnd: float = 10.0
    w_max: float = 0.0
    epoch_start: Optional[float] = None
    ssthresh: float = float("inf")

    C: float = 0.4
    beta: float = 0.7

    def on_loss(self, now: float) -> None:
        """Multiplicative decrease and epoch reset."""
        self.w_max = self.cwnd
        self.cwnd = max(2.0, self.cwnd * self.beta)
        self.ssthresh = self.cwnd
        self.epoch_start = None

    def on_ack(self, now: float) -> None:
        """Slow start below ssthresh, cubic growth above."""
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
            return
        if self.epoch_start is None:
            self.epoch_start = now
            self._k = ((self.w_max * (1.0 - self.beta)) / self.C) ** (1.0 / 3.0)
        t = now - self.epoch_start
        target = self.C * (t - self._k) ** 3 + self.w_max
        if target > self.cwnd:
            # Approach the cubic target within one RTT's worth of ACKs.
            self.cwnd += min(1.0, (target - self.cwnd) / max(self.cwnd, 1.0))
        else:
            self.cwnd += 0.01 / max(self.cwnd, 1.0)  # TCP-friendly probe


class CubicFlow:
    """Greedy downlink TCP flow with Cubic congestion control.

    The sender keeps ``in_flight < cwnd`` by injecting MSS-sized
    packets; a packet's ACK fires ``ack_delay_s`` after the RLC
    delivers it.  A rejected injection (RLC/TC tail drop) is a loss
    event.
    """

    MSS = 1448

    def __init__(
        self,
        clock: SimClock,
        sink: Callable[[Packet], bool],
        flow: Optional[FiveTuple] = None,
        ack_delay_s: float = 0.010,
        state: Optional[CubicState] = None,
    ) -> None:
        self.clock = clock
        self.sink = sink
        self.flow = flow or FiveTuple("10.0.0.2", "10.0.1.1", 5201, 5201, "tcp")
        self.ack_delay_s = ack_delay_s
        self.state = state or CubicState()
        self.stats = FlowStats()
        self.in_flight = 0
        self.losses = 0
        self._seq = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self._fill_window()

    def stop(self) -> None:
        self._running = False

    def _fill_window(self) -> None:
        while self._running and self.in_flight < int(self.state.cwnd):
            self._seq += 1
            packet = Packet(
                flow=self.flow, size=self.MSS, created_at=self.clock.now, seq=self._seq
            )
            self.stats.record_sent(packet)
            if self.sink(packet):
                self.in_flight += 1
            else:
                # Tail drop at the bottleneck buffer: Cubic loss event.
                self.stats.record_dropped(packet)
                self.losses += 1
                self.state.on_loss(self.clock.now)
                break

    def on_delivered(self, packet: Packet) -> None:
        """DeliveryHub handler: schedule this packet's ACK."""
        self.stats.record_delivered(packet)
        self.clock.call_after(self.ack_delay_s, self._on_ack)

    def _on_ack(self) -> None:
        if self.in_flight > 0:
            self.in_flight -= 1
        self.state.on_ack(self.clock.now)
        if self._running:
            self._fill_window()
