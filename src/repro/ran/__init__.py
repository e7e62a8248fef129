"""Simulated radio access network substrate.

The paper's evaluation runs against OpenAirInterface 4G/5G base
stations.  This package is the synthetic equivalent: a discrete-event
model of a base station user plane with the sublayers the FlexRIC
service models touch (SDAP/PDCP/RLC/MAC and a PHY abstraction), plus
UEs, channel quality processes, MAC schedulers (round robin,
proportional fair, and the NVS slice scheduler of Kokku et al.), and
monolithic / CU-DU-split compositions.
"""

from repro.core.simclock import SimClock, Event
from repro.ran.phy import PhyConfig, ChannelModel, transport_block_bits
from repro.ran.ue import UeContext
from repro.ran.mac import MacLayer, RoundRobinScheduler, ProportionalFairScheduler
from repro.ran.rlc import RlcEntity, RlcConfig
from repro.ran.pdcp import PdcpEntity
from repro.ran.sdap import SdapEntity
from repro.ran.nvs import NvsSliceConfig, NvsScheduler, SliceKind
from repro.ran.base_station import BaseStation, BaseStationConfig, CuNode, DuNode, split_base_station
from repro.ran.l2sim import L2Simulator

__all__ = [
    "SimClock",
    "Event",
    "PhyConfig",
    "ChannelModel",
    "transport_block_bits",
    "UeContext",
    "MacLayer",
    "RoundRobinScheduler",
    "ProportionalFairScheduler",
    "RlcEntity",
    "RlcConfig",
    "PdcpEntity",
    "SdapEntity",
    "NvsSliceConfig",
    "NvsScheduler",
    "SliceKind",
    "BaseStation",
    "BaseStationConfig",
    "CuNode",
    "DuNode",
    "split_base_station",
    "L2Simulator",
]
