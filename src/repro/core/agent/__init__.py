"""FlexRIC agent library (§4.1).

Extends a base station with E2 connectivity:

* :mod:`repro.core.agent.ran_function` — the generic RAN function API
  (subscription / subscription-delete / control callbacks) custom
  service models implement,
* :mod:`repro.core.agent.agent` — the agent itself: E2 setup, message
  handling, dispatch to RAN functions,
* :mod:`repro.core.agent.multi_controller` — management of additional
  controllers and the UE-to-controller association (§4.1.2),
* :mod:`repro.core.agent.reconnect` — the reconnect policy and its
  schedulers.

Only the RAN function API loads with the package: service models import
it on the RIC side too.  The other names load their module on first
access.
"""

from repro.core.agent.ran_function import (
    ControlOutcome,
    IndicationSink,
    RanFunction,
    SubscriptionHandle,
)
from repro.core.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ControllerRegistry": "multi_controller",
        "LinkState": "multi_controller",
        "UeControllerMap": "multi_controller",
        "ManualScheduler": "reconnect",
        "ReconnectPolicy": "reconnect",
        "timer_scheduler": "reconnect",
        "Agent": "agent",
        "AgentConfig": "agent",
    },
)

__all__ = [
    "ControlOutcome",
    "IndicationSink",
    "RanFunction",
    "SubscriptionHandle",
    "ControllerRegistry",
    "LinkState",
    "ManualScheduler",
    "ReconnectPolicy",
    "UeControllerMap",
    "Agent",
    "AgentConfig",
    "timer_scheduler",
]
