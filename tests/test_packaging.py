"""Packaging metadata: ``pyproject.toml`` carries the name and version.

``setup.py`` is the legacy entry point for offline editable installs and
defers every field to ``pyproject.toml``; the version is read from
``repro.__version__`` so it has one source.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reports_the_project_name_and_version():
    pytest.importorskip("setuptools")
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]
