"""The docs cross-reference contract, enforced in tier-1.

``tools/check_docs.py`` (also a gating CI job) imports every ``repro.…``
symbol referenced by README/docs, validates every mentioned CLI flag
against the real parser, and follows every relative link.  Running it
here means a refactor that renames a documented symbol fails the local
suite, not just CI.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", TOOLS_DIR / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_docs_have_no_dangling_references():
    checker = _load_checker()
    problems = checker.run_checks()
    assert problems == [], "\n".join(problems)


def test_checker_catches_a_dangling_symbol(tmp_path, monkeypatch):
    """The tool must actually detect breakage, not just pass vacuously."""
    checker = _load_checker()
    root = tmp_path
    (root / "docs").mkdir()
    (root / "README.md").write_text(
        "see `repro.sim.pipeline.no_such_stage` and run\n"
        "```sh\npython -m repro run-everything --warp-speed\n```\n"
        "plus [a doc](docs/missing.md)\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", root)
    problems = checker.run_checks()
    kinds = "\n".join(problems)
    assert "no_such_stage" in kinds
    assert "--warp-speed" in kinds
    assert "run-everything" in kinds
    assert "missing.md" in kinds


def test_checker_checks_flags_against_their_own_subcommand(
    tmp_path, monkeypatch
):
    """A flag that exists only on another subcommand is still reported."""
    checker = _load_checker()
    root = tmp_path
    (root / "docs").mkdir()
    (root / "README.md").write_text(
        "```sh\n"
        "python -m repro run fig1 --profile mini\n"
        "python -m repro capture --corpus out/ \\\n"
        "    --profile mini --quick\n"
        "python -m repro scenario run home-reauth --jobs 2 --thresholds 1\n"
        "```\n"
        "capture takes `--profile NAME`\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", root)
    assert sorted(checker.run_checks()) == [
        "README.md: unknown CLI flag '--profile' on 'repro run'",
        "README.md: unknown CLI flag '--quick' on 'repro capture'",
        "README.md: unknown CLI flag '--thresholds' on 'repro scenario run'",
    ]


def test_checker_checks_tool_flags_against_the_tools_parser(
    tmp_path, monkeypatch
):
    """``python tools/<name>.py`` lines are checked against that tool's
    ``build_parser()``; flags a tool cannot be checked for are reported."""
    checker = _load_checker()
    root = tmp_path
    (root / "docs").mkdir()
    (root / "tools").mkdir()
    shutil.copy(TOOLS_DIR / "loadgen.py", root / "tools" / "loadgen.py")
    (root / "tools" / "smoke.py").write_text("def main():\n    return 0\n")
    (root / "README.md").write_text(
        "```sh\n"
        "python tools/loadgen.py --corpus captures/\n"
        "PYTHONPATH=src python tools/loadgen.py --mode closed \\\n"
        "    --concurrency 8\n"
        "python tools/smoke.py\n"
        "python tools/smoke.py --rounds 2\n"
        "python tools/gone.py --port 1\n"
        "```\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", root)
    assert sorted(checker.run_checks()) == [
        "README.md: cannot check flags of 'tools/gone.py' (no such tool)",
        "README.md: cannot check flags of 'tools/smoke.py' "
        "(it has no build_parser() to check its flags against)",
        "README.md: unknown flag '--corpus' on 'tools/loadgen.py'",
    ]


def test_checker_checks_tool_flags_in_inline_code_spans(tmp_path, monkeypatch):
    """An inline span naming a tool with flags is checked like a fenced
    line, with or without ``python`` in front."""
    checker = _load_checker()
    root = tmp_path
    (root / "docs").mkdir()
    (root / "tools").mkdir()
    shutil.copy(TOOLS_DIR / "loadgen.py", root / "tools" / "loadgen.py")
    (root / "README.md").write_text(
        "retry with `tools/loadgen.py --retries 2 --retry-forever`,\n"
        "or `python tools/loadgen.py --scenario home-reauth`;\n"
        "and `tools/loadgen.py` alone passes no flag\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", root)
    assert checker.run_checks() == [
        "README.md: unknown flag '--retry-forever' on 'tools/loadgen.py'",
    ]


def test_checker_reports_missing_markdown_cited_in_code(tmp_path, monkeypatch):
    """Every ``*.md`` a source comment or string, or a test comment or
    docstring, names must exist; a test's other strings are test data."""
    checker = _load_checker()
    root = tmp_path
    (root / "docs").mkdir()
    (root / "src" / "repro").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "README.md").write_text("nothing to resolve\n")
    (root / "DESIGN.md").write_text("# Design notes\n")
    (root / "src" / "repro" / "mod.py").write_text(
        '"""See DESIGN.md §3 and docs/gone.md."""\n'
        "# aliasing: NOTES.md\n"
        'HELP = "printed: see EXPERIMENTS.md"\n'
    )
    (root / "tests" / "test_mod.py").write_text(
        '"""Pinned in docs/absent.md."""\n'
        "\n"
        "\n"
        "def test_fixture(tmp_path):\n"
        '    """Writes README.md."""\n'
        '    (tmp_path / "README.md").write_text("[a](docs/missing.md)")\n'
    )
    monkeypatch.setattr(checker, "REPO_ROOT", root)
    assert sorted(checker.run_checks()) == [
        "src/repro/mod.py:1: cites missing file 'docs/gone.md'",
        "src/repro/mod.py:2: cites missing file 'NOTES.md'",
        "src/repro/mod.py:3: cites missing file 'EXPERIMENTS.md'",
        "tests/test_mod.py:1: cites missing file 'docs/absent.md'",
    ]
