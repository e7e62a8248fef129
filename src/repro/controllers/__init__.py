"""Controller specializations built on the FlexRIC SDK (§6).

Each module composes the server library, iApps and (optionally) a
northbound communication interface into a service-oriented controller:

* :mod:`repro.controllers.monitoring` — statistics collection into an
  in-memory store (the Fig. 8 workload),
* :mod:`repro.controllers.slicing` — RAT-unaware slicing controller
  with a REST northbound (§6.1.2, Table 4),
* :mod:`repro.controllers.traffic` — flow-based traffic controller
  with a broker northbound and the bufferbloat-fighting xApp (§6.1.1,
  Table 3),
* :mod:`repro.controllers.virtualization` — the recursive controller
  that re-exposes E2 northbound via the agent library and virtualizes
  NVS resources per tenant (§6.2, Table 5, Appendix B),
* :mod:`repro.controllers.relay` — the two-hop relaying controller used
  for the fair comparison against the O-RAN RIC (§5.4),
* :mod:`repro.controllers.xapp_host` — hosting O-RAN-style xApps on
  SM-independent iApps (§6.3).

The package itself exports nothing: import the submodule a controller
composes, so that a monitoring RIC does not load the REST northbound,
the broker or the traffic models the other controllers bring.
"""
