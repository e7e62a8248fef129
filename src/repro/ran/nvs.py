"""NVS: a substrate for virtualizing wireless resources (Kokku et al.).

The slice scheduler the paper employs for both the slicing controller
(§6.1.2) and the recursive virtualization layer (§6.2, Appendix B).
NVS defines

* **capacity slices** with a resource share ``c_s``, and
* **rate slices** with a reserved rate ``r_rsv`` over a reference rate
  ``r_ref`` (share ``r_rsv / r_ref``),

admits slices while ``sum(c_s) + sum(r_rsv/r_ref) <= 1``, and at each
scheduling slot picks the slice with the largest ratio of *entitled*
share to *received* share (exponentially weighted).  Backlog-aware
selection yields NVS's hallmark: strict isolation when everyone is
loaded, work-conserving sharing when someone is idle (Fig. 13b).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional


class SliceKind(Enum):
    CAPACITY = "capacity"
    RATE = "rate"


@dataclass
class NvsSliceConfig:
    """RAN-side NVS slice parameters (mirrors the SC SM schema)."""

    slice_id: int
    kind: SliceKind = SliceKind.CAPACITY
    cap: float = 0.0            # capacity slices: share of resources
    rate_mbps: float = 0.0      # rate slices: reserved rate
    ref_mbps: float = 0.0       # rate slices: reference rate
    label: str = ""
    ue_scheduler: str = "pf"

    @property
    def share(self) -> float:
        """Resource fraction this slice consumes for admission."""
        if self.kind is SliceKind.CAPACITY:
            return self.cap
        if self.ref_mbps <= 0.0:
            raise ValueError(f"rate slice {self.slice_id} needs ref_mbps > 0")
        return self.rate_mbps / self.ref_mbps

    def validate(self) -> None:
        if self.kind is SliceKind.CAPACITY:
            if not 0.0 < self.cap <= 1.0:
                raise ValueError(f"capacity share out of (0,1]: {self.cap}")
        else:
            if self.rate_mbps <= 0.0:
                raise ValueError(f"non-positive reserved rate: {self.rate_mbps}")
            if self.ref_mbps < self.rate_mbps:
                raise ValueError(
                    f"reference rate {self.ref_mbps} below reserved {self.rate_mbps}"
                )


@dataclass
class _SliceState:
    config: NvsSliceConfig
    exp_share: float = 0.0      # EWMA of received slot fraction
    exp_rate_mbps: float = 0.0  # EWMA of achieved rate (rate slices)
    slots_served: int = 0


class NvsScheduler:
    """Slot-by-slot NVS slice selection with admission control.

    ``beta`` is the EWMA smoothing factor; the small epsilon floor in
    the weight computation implements NVS's bootstrap (a slice that has
    never been served has infinite priority).
    """

    _EPSILON = 1e-9

    def __init__(self, beta: float = 0.01) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta out of (0,1]: {beta}")
        self.beta = beta
        self._slices: Dict[int, _SliceState] = {}

    # -- admission -----------------------------------------------------

    def total_share(self, excluding: Optional[int] = None) -> float:
        return sum(
            state.config.share
            for slice_id, state in self._slices.items()
            if slice_id != excluding
        )

    def add_slice(self, config: NvsSliceConfig) -> None:
        """Admit a slice; raises ``ValueError`` if shares would exceed 1.

        Re-adding an existing slice id reconfigures it, subject to the
        same admission check.
        """
        config.validate()
        if self.total_share(excluding=config.slice_id) + config.share > 1.0 + 1e-9:
            raise ValueError(
                f"admission refused for slice {config.slice_id}: total share "
                f"{self.total_share(excluding=config.slice_id) + config.share:.3f} > 1"
            )
        existing = self._slices.get(config.slice_id)
        if existing is not None:
            existing.config = config
        else:
            self._slices[config.slice_id] = _SliceState(config=config)

    def remove_slice(self, slice_id: int) -> None:
        if slice_id not in self._slices:
            raise KeyError(f"unknown slice {slice_id}")
        del self._slices[slice_id]

    def __contains__(self, slice_id: int) -> bool:
        return slice_id in self._slices

    def __len__(self) -> int:
        return len(self._slices)

    # -- scheduling ------------------------------------------------------

    def pick(self, backlogged: List[int]) -> Optional[int]:
        """Choose the slice to serve this slot.

        ``backlogged`` lists slice ids that currently have traffic; the
        EWMAs of *all* slices decay every slot, so an idle slice's
        entitlement recovers once it becomes active again.
        """
        best_id: Optional[int] = None
        best_weight = -1.0
        eligible = set(backlogged)
        for slice_id, state in self._slices.items():
            if slice_id not in eligible:
                continue
            config = state.config
            if config.kind is SliceKind.CAPACITY:
                weight = config.cap / max(state.exp_share, self._EPSILON)
            else:
                weight = config.rate_mbps / max(state.exp_rate_mbps, self._EPSILON)
            if weight > best_weight:
                best_weight = weight
                best_id = slice_id
        return best_id

    def account(self, served_id: Optional[int], served_mbps: float = 0.0) -> None:
        """Update EWMAs after a slot; ``served_id`` may be None (idle)."""
        for slice_id, state in self._slices.items():
            served = 1.0 if slice_id == served_id else 0.0
            state.exp_share = (1.0 - self.beta) * state.exp_share + self.beta * served
            rate = served_mbps if slice_id == served_id else 0.0
            state.exp_rate_mbps = (
                (1.0 - self.beta) * state.exp_rate_mbps + self.beta * rate
            )
            if slice_id == served_id:
                state.slots_served += 1

    def snapshot(self) -> List[dict]:
        """Current config and scheduling state per slice."""
        return [
            {
                "slice_id": slice_id,
                "kind": state.config.kind.value,
                "share": state.config.share,
                "label": state.config.label,
                "exp_share": state.exp_share,
                "exp_rate_mbps": state.exp_rate_mbps,
                "slots_served": state.slots_served,
            }
            for slice_id, state in sorted(self._slices.items())
        ]
