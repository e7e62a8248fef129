"""A controller loads what it composes (FlexRIC §6, Table 2).

A monitoring RIC and a MAC agent run in fresh interpreters
(``closure_child.py``), connected over TCP, with reports flowing.  Each
side's ``sys.modules`` must hold neither the HTTP northbound, the
traffic models and the controllers it does not run, nor the other
side's library — while the payload schema registry stays complete.
The asyncio E2 node, imported alone in a fresh interpreter, loads no
server module either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).with_name("closure_child.py")
REPORTS = 5

#: stdlib the REST northbound (``http.server``/``http.client``) drags in.
HTTP_STACK = ("http.server", "http.client", "ssl", "email", "socketserver")
#: prefixes no E2 endpoint of a monitoring deployment runs.
NOT_COMPOSED = (
    "repro.northbound",
    "repro.traffic",
    "repro.controllers.slicing",
    "repro.controllers.traffic",
    "repro.controllers.virtualization",
    "repro.controllers.relay",
    "repro.controllers.xapp_host",
    "repro.core.transport.faulty",
    "repro.core.transport.inproc",
)
#: What importing a RIC costs (``setup_s`` of every benchmark run): its
#: ``repro`` modules, and the classes ``@dataclass`` processes (about
#: 1 ms each; a payload declared as a ``Schema`` literal costs µs).
RIC_REPRO_MODULES = 49
RIC_DATACLASSES = 62
#: the agent library, on the RIC.
AGENT_ONLY = ("repro.core.agent.agent", "repro.core.agent.reconnect")
#: the server library, on the agent.
SERVER_ONLY = ("repro.core.server",)


def _matching(modules, prefixes):
    """Modules that are one of ``prefixes`` or inside one of them."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def _spawn(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )


def _finish(proc):
    try:
        proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode


@pytest.fixture(scope="module")
def closures():
    """``(ric, agent)``: each side's JSON report, after REPORTS reports
    reached the RIC's store."""
    ric = _spawn("ric", str(REPORTS))
    agent = None
    try:
        address = ric.stdout.readline().strip()
        assert address, "the RIC child did not start"
        agent = _spawn("agent", address, str(REPORTS))
        agent_report = json.loads(agent.stdout.readline())
        ric_report = json.loads(ric.stdout.readline())
    finally:
        codes = [_finish(proc) for proc in (agent, ric) if proc is not None]
    assert codes == [0, 0]
    return ric_report, agent_report


class TestRicClosure:
    def test_reports_reached_the_store(self, closures):
        assert closures[0]["reports"] == REPORTS

    def test_no_http_stack(self, closures):
        assert _matching(closures[0]["modules"], HTTP_STACK) == []

    def test_no_controller_it_does_not_compose(self, closures):
        modules = closures[0]["modules"]
        assert "repro.controllers.monitoring" in modules
        assert _matching(modules, NOT_COMPOSED) == []

    def test_no_agent_library(self, closures):
        modules = closures[0]["modules"]
        assert "repro.core.agent.ran_function" in modules  # the SMs' API
        assert _matching(modules, AGENT_ONLY) == []

    def test_import_stays_within_its_counts(self, closures):
        modules = _matching(closures[0]["modules"], ("repro",))
        assert len(modules) <= RIC_REPRO_MODULES, modules
        assert len(closures[0]["dataclasses"]) <= RIC_DATACLASSES, closures[0]["dataclasses"]

    def test_payload_registry_is_complete(self, closures):
        from repro.core.codec import schema

        assert closures[0]["payloads"] == schema.payload_schema_names()


class TestAgentClosure:
    def test_no_http_stack(self, closures):
        assert _matching(closures[1]["modules"], HTTP_STACK) == []

    def test_no_controller_or_transport_it_does_not_run(self, closures):
        modules = closures[1]["modules"]
        assert _matching(modules, NOT_COMPOSED + ("repro.controllers",)) == []

    def test_no_server_library(self, closures):
        modules = closures[1]["modules"]
        assert "repro.core.agent.agent" in modules
        assert _matching(modules, SERVER_ONLY) == []


class TestAsyncNodeClosure:
    def test_no_server_library(self):
        """The asyncio E2 node (the benchmark's flood generator) is an
        E2-node client: importing it loads no server module."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        probe = "import json, sys, repro.aio.node; print(json.dumps(sorted(sys.modules)))"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=30, check=True,
        )
        modules = json.loads(out.stdout)
        assert "repro.aio.node" in modules
        assert _matching(modules, SERVER_ONLY) == []


class TestLazyPackageNames:
    @pytest.mark.parametrize(
        "package, submodule", [("repro.core.transport", "faulty"), ("repro.core.agent", "reconnect")]
    )
    def test_every_exported_name_resolves_to_its_definition(self, package, submodule):
        import importlib

        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in dir(module)
            assert getattr(importlib.import_module(value.__module__), name) is value
        with pytest.raises(AttributeError):
            module.NoSuchName
        # ``from package import submodule`` goes past ``__getattr__``.
        assert __import__(package, fromlist=[submodule]).__dict__[submodule].__name__ == (
            f"{package}.{submodule}"
        )
