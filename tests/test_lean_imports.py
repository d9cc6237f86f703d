"""Lean process start: each serving process imports only the code it runs.

The shard router, the service client and the CLI's parser never touch
the simulator, so importing them must load neither numpy nor scipy
(``import repro.cli`` used to cost ~1.2 s and ~110 MiB in every router
and client process).  The packages that make this possible export
lazily (PEP 562).  A process that does run rounds loads numpy and
scipy's compiled ``sosfilt`` kernel, but not ``scipy.signal``, whose
import used to cost ~0.8 s of every DSP process's start.  These checks
run in fresh interpreters, because the test process itself has long
since imported everything.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Served before ``calibrate`` in both topologies: two sessions, then the
#: first request retried under its own id (its rounds count once).
CALIBRATION_TRAFFIC = """
import asyncio

from repro.service.client import AuthClient
from repro.service.protocol import CalibrateRequest, encode_message

REQUESTS = [
    dict(request_id="a", environment="quiet_lab", distance_m=0.8, seed=3,
         rounds=4, threshold_m=2.0),
    dict(request_id="b", environment="quiet_lab", distance_m=1.2, seed=4,
         rounds=4, threshold_m=2.0),
]


async def serve_traffic(port):
    async with await AuthClient.connect("127.0.0.1", port) as client:
        await asyncio.gather(
            *(client.authenticate(**fields) for fields in REQUESTS)
        )
        await client.authenticate(**REQUESTS[0])


async def calibrate_line(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    request = CalibrateRequest("cal", "quiet_lab", 5.0)
    writer.write((encode_message(request) + "\\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return line.decode()
"""


def run_fresh(script: str) -> str:
    """stdout of ``script`` run by a fresh interpreter on ``src``."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_router_client_and_parser_load_no_numpy_or_scipy():
    loaded = json.loads(
        run_fresh(
            "import json, sys\n"
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "import repro.service.shard, repro.service.client\n"
            "import repro.service.protocol\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] in ('numpy', 'scipy'))))\n"
        )
    )
    assert loaded == []


@pytest.mark.parametrize("package", ["repro", "repro.service", "repro.dsp.backend"])
def test_lazy_exports_resolve_to_their_defining_objects(package):
    report = json.loads(
        run_fresh(
            "import importlib, json\n"
            f"package = importlib.import_module({package!r})\n"
            "names = list(package.__all__)\n"
            "listed = set(dir(package))\n"
            "star = {}\n"
            f"exec('from {package} import *', star)\n"
            "report = {'unresolved': [], 'unlisted': [], 'unstarred': [],\n"
            "          'foreign': []}\n"
            "for name in names:\n"
            "    try:\n"
            "        value = getattr(package, name)\n"
            "    except AttributeError:\n"
            "        report['unresolved'].append(name)\n"
            "        continue\n"
            "    if name not in listed:\n"
            "        report['unlisted'].append(name)\n"
            "    if star.get(name, star) is not value:\n"
            "        report['unstarred'].append(name)\n"
            "    home = package._EXPORTS.get(name, package.__name__)\n"
            "    if getattr(importlib.import_module(home), name) is not value:\n"
            "        report['foreign'].append(name)\n"
            "try:\n"
            "    package.no_such_export\n"
            "except AttributeError as error:\n"
            "    report['unknown'] = str(error)\n"
            "report['count'] = len(names)\n"
            "print(json.dumps(report))\n"
        )
    )
    assert report["count"] > 0
    for key in ("unresolved", "unlisted", "unstarred", "foreign"):
        assert report[key] == [], key
    assert "no_such_export" in report.get("unknown", "")


def test_router_serves_without_numpy_and_calibrates_like_one_process():
    """The router decodes requests, peeks replies and records calibration
    evidence on the stdlib alone; only its first ``calibrate`` may load
    the τ model.  Its one reply is byte-identical to a single-process
    server's after the same traffic, retried round included."""
    report = json.loads(
        run_fresh(
            CALIBRATION_TRAFFIC
            + "import json, sys\n"
            "from repro.service.shard import ShardedAuthServer\n"
            "async def main():\n"
            "    async with ShardedAuthServer(2) as front:\n"
            "        server = await front.serve('127.0.0.1', 0)\n"
            "        port = server.sockets[0].getsockname()[1]\n"
            "        await serve_traffic(port)\n"
            "        loaded = sorted(m for m in sys.modules\n"
            "            if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "        line = await calibrate_line(port)\n"
            "        server.close()\n"
            "        await server.wait_closed()\n"
            "    return {'loaded': loaded, 'line': line}\n"
            "print(json.dumps(asyncio.run(main())))\n"
        )
    )
    assert report["loaded"] == []

    from repro.service import AuthService

    traffic: dict = {}
    exec(CALIBRATION_TRAFFIC, traffic)

    async def single_process() -> str:
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            await traffic["serve_traffic"](port)
            line = await traffic["calibrate_line"](port)
            server.close()
            await server.wait_closed()
        return line

    expected = asyncio.run(single_process())
    assert report["line"] == expected
    reply = json.loads(expected)
    assert (reply["shard"], reply["shards"]) == (0, 1)
    assert (reply["samples"], reply["source"]) == (8, "measured")


def test_dsp_process_loads_no_scipy_signal_stats_or_special():
    """Rendering, detecting and deciding a round loads scipy's compiled
    ``sosfilt`` kernel alone (``repro.dsp.iir``), never the
    ``scipy.signal`` package; the §VI-C model adds ``scipy.special``
    when it first runs, and never ``scipy.stats``."""
    report = json.loads(
        run_fresh(
            "import json, sys\n"
            "import repro.service.server, repro.eval.engine\n"
            "from repro.eval.engine import TrialSpec, build_trial_session\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "        if m.split('.')[0] == 'scipy')\n"
            "build_trial_session(TrialSpec('office', 1.0, 1, 0), 0).run()\n"
            "after_round = scipy_modules()\n"
            "from repro.eval.frr_far import GaussianAuthModel\n"
            "GaussianAuthModel(sigma_m=0.07).frr(1.0)\n"
            "print(json.dumps({'round': after_round,\n"
            "                  'model': scipy_modules()}))\n"
        )
    )

    def packages(modules):
        return {".".join(m.split(".")[:2]) for m in modules}

    after_round = report["round"]
    assert [m for m in after_round if m.startswith("scipy.signal")] == [
        "scipy.signal._sosfilt"
    ]
    assert not {"scipy.stats", "scipy.special"} & packages(after_round)
    assert "scipy.stats" not in packages(report["model"])
    assert "scipy.signal" not in report["model"]
