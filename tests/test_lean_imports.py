"""Lean process start: each serving process imports only the code it runs.

The shard router, the service client and the CLI's parser never touch
the simulator, so importing them must load neither numpy nor scipy
(``import repro.cli`` used to cost ~1.2 s and ~110 MiB in every router
and client process).  The packages that make this possible export
lazily (PEP 562); these checks run in fresh interpreters, because the
test process itself has long since imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


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
