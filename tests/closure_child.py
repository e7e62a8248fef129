"""One side of an E2 link, built the way a deployment builds it, in a
fresh interpreter that imports nothing else.

``test_import_closure.py`` runs both roles and asserts what each side
has in ``sys.modules``; run by hand it shows the same closure::

    PYTHONPATH=src python tests/closure_child.py ric < /dev/null
    PYTHONPATH=src python -X importtime tests/closure_child.py ric < /dev/null

``ric [REPORTS]``: a monitoring RIC as ``benchmarks/e2e/ric_child.py``
builds one (``Server``, ``create_transport("tcp")``,
``StatsMonitorIApp``, the MAC and HW SMs).  Prints its address, then —
once REPORTS MAC reports are stored (default 0) or 10 s have passed —
one JSON line: the reports seen, ``sys.modules`` and the payload schema
registry.  ``agent ADDRESS [REPORTS]``: a MAC agent (``Agent``,
``TcpTransport``, ``MacStatsFunction``) that attaches to ADDRESS, waits
for the RIC's subscription, sends REPORTS reports and prints
``sys.modules``.  Both keep their link up until stdin closes.
"""

import json
import sys
import time

DEADLINE_S = 10.0


def _wait(done) -> None:
    deadline = time.monotonic() + DEADLINE_S
    while not done() and time.monotonic() < deadline:
        time.sleep(0.005)


def _report(**fields) -> None:
    print(json.dumps(fields), flush=True)


def ric(reports: int) -> None:
    from repro.controllers.monitoring import StatsMonitorIApp
    from repro.core.server import Server, ServerConfig
    from repro.sm import hw, mac_stats  # noqa: F401  (the SMs a RIC composes)

    server = Server(ServerConfig(e2ap_codec="fb"))
    transport = server.create_transport("tcp")
    monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1, sm_codec="fb")
    server.add_iapp(monitor)
    address = server.listen(transport, "127.0.0.1:0").address
    transport.start()
    print(address, flush=True)
    _wait(lambda: monitor.store.total_stored >= reports)
    modules = sorted(sys.modules)
    # Asked after the snapshot: the accessor imports what a registry
    # that was short would still need.
    from repro.core.codec import schema

    _report(
        reports=monitor.store.total_stored,
        modules=modules,
        payloads=schema.payload_schema_names(),
    )
    sys.stdin.read()
    transport.stop()


def agent(address: str, reports: int) -> None:
    from repro.core.agent import Agent, AgentConfig
    from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
    from repro.core.transport import TcpTransport
    from repro.sm.mac_stats import MacStatsFunction, synthetic_provider

    transport = TcpTransport()
    transport.start()
    node = Agent(
        AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="fb"),
        transport,
    )
    mac = MacStatsFunction(synthetic_provider(2), sm_codec="fb")
    node.register_function(mac)
    node.connect(address)
    _wait(lambda: mac.subscriptions)
    for _ in range(reports):
        mac.pump()
    _report(modules=sorted(sys.modules))
    sys.stdin.read()
    transport.stop()


if __name__ == "__main__":
    role, args = sys.argv[1], sys.argv[2:]
    if role == "ric":
        ric(int(args[0]) if args else 0)
    elif role == "agent":
        agent(args[0], int(args[1]) if len(args) > 1 else 0)
    else:
        raise SystemExit(f"unknown role {role!r}: ric or agent")
