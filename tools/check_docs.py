"""Docs cross-reference checker: no dangling symbols, flags, or links.

Scans ``README.md`` and every ``docs/*.md`` for three kinds of
references and fails (exit 1, one line per problem) when any of them
does not resolve against the actual codebase:

* **Python symbols** — every dotted ``repro.…`` name appearing in inline
  code or fenced code blocks is imported (module prefix) and resolved
  attribute by attribute (``repro.sim.pipeline.detect_batch`` must
  exist, not merely parse);
* **CLI flags and subcommands** — every ``--flag`` on a ``python -m
  repro …`` line inside a fenced shell block (backslash continuations
  joined) must be registered on that line's own subcommand parser
  (`repro.cli.build_parser`, descending into nested subcommands such as
  ``scenario run``), and the subcommand must exist; every inline code
  span that is just a flag (optionally with a metavar, e.g.
  ``--jobs N``) must be registered on some parser;
* **Tool flags** — every ``--flag`` on a ``python tools/<name>.py …``
  line inside a fenced shell block, or in an inline code span naming
  ``tools/<name>.py`` (with or without ``python``), must be registered
  on that tool's ``build_parser()`` (the file is loaded by path); a
  reference passing flags to a tool that does not exist or has no
  ``build_parser()`` is reported too;
* **Relative links** — every ``[text](path)`` markdown link that is not
  an URL or anchor must point at an existing file.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py [--verbose]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SYMBOL_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: A shell line running one of the repository's tools.
TOOL_LINE_RE = re.compile(r"\bpython3? (tools/[A-Za-z0-9_]+\.py)(.*)")
#: An inline code span naming one of the repository's tools.
INLINE_TOOL_RE = re.compile(r"^(?:python3? )?(tools/[A-Za-z0-9_]+\.py)(.*)")
#: An inline code span that is exactly one flag, optionally with a
#: placeholder metavar ("--jobs N", "--cache-dir DIR").
INLINE_FLAG_RE = re.compile(r"^(--[a-z][a-z0-9-]*)(?:[= ][A-Za-z0-9_./-]+)?$")


def split_markdown(text: str) -> tuple[list[str], list[str]]:
    """Split a document into (prose lines, code-block lines)."""
    prose: list[str] = []
    code: list[str] = []
    in_code = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_code = not in_code
            continue
        (code if in_code else prose).append(line)
    return prose, code


def collect_symbols(text: str) -> set[str]:
    """Every dotted repro.* reference in code blocks or inline code."""
    symbols: set[str] = set()
    prose, code = split_markdown(text)
    for line in code:
        symbols.update(SYMBOL_RE.findall(line))
    for line in prose:
        for span in INLINE_CODE_RE.findall(line):
            symbols.update(SYMBOL_RE.findall(span))
    return symbols


def resolve_symbol(dotted: str) -> str | None:
    """None when ``dotted`` resolves; else a description of the failure."""
    parts = dotted.split(".")
    module = None
    consumed = 0
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        try:
            module = importlib.import_module(candidate)
            consumed = end
            break
        except ImportError:
            continue
        except Exception as error:  # pragma: no cover - broken module
            return f"importing {candidate} raised {error!r}"
    if module is None:
        return "no importable module prefix"
    obj = module
    for attribute in parts[consumed:]:
        try:
            obj = getattr(obj, attribute)
        except AttributeError:
            return (
                f"{type(obj).__name__} "
                f"{'.'.join(parts[:consumed])!r} has no attribute "
                f"{attribute!r}"
            )
        consumed += 1
    return None


def join_continuations(lines: list[str]) -> list[str]:
    """Shell lines with trailing-backslash continuations joined."""
    joined: list[str] = []
    pending = ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
        else:
            joined.append(pending + line)
            pending = ""
    return joined + ([pending] if pending else [])


def collect_cli_flags(
    text: str,
) -> tuple[set[tuple[tuple[str, ...], str]], set[str], set[str]]:
    """(code flags, prose flags, subcommands) referenced for the CLI.

    Each code flag is paired with the words preceding the first flag on
    its line (``("run", "fig1")``), which name the subcommand it must be
    registered on.
    """
    code_flags: set[tuple[tuple[str, ...], str]] = set()
    prose_flags: set[str] = set()
    commands: set[str] = set()
    prose, code = split_markdown(text)
    for line in join_continuations(code):
        if "-m repro" not in line and "piano-repro" not in line:
            continue
        tail = re.split(r"-m repro|piano-repro", line, maxsplit=1)[1]
        words = tuple(
            itertools.takewhile(lambda w: not w.startswith("-"), tail.split())
        )
        code_flags.update((words, flag) for flag in FLAG_RE.findall(tail))
        if words:
            commands.add(words[0])
    for line in prose:
        for span in INLINE_CODE_RE.findall(line):
            match = INLINE_FLAG_RE.match(span.strip())
            if match:
                prose_flags.add(match.group(1))
    return code_flags, prose_flags, commands


def registered_cli_surface() -> dict[tuple[str, ...], set[str]]:
    """Option strings of every parser, keyed by its subcommand path.

    The top-level parser is ``()``, ``repro run`` is ``("run",)`` and
    ``repro scenario run`` is ``("scenario", "run")``.
    """
    from repro.cli import build_parser

    surface: dict[tuple[str, ...], set[str]] = {}
    parsers = [((), build_parser())]
    while parsers:
        path, current = parsers.pop()
        surface[path] = set()
        for action in current._actions:
            surface[path].update(action.option_strings)
            if isinstance(action.choices, dict):
                for name, sub in action.choices.items():
                    if isinstance(sub, argparse.ArgumentParser):
                        parsers.append((path + (name,), sub))
    return surface


def command_path(
    words: tuple[str, ...], surface: dict[tuple[str, ...], set[str]]
) -> tuple[str, ...]:
    """The longest registered subcommand path that ``words`` starts with."""
    path: tuple[str, ...] = ()
    for word in words:
        if path + (word,) not in surface:
            break
        path += (word,)
    return path


def collect_tool_flags(text: str) -> set[tuple[str, str]]:
    """(tool path, flag) for every flag passed to a ``tools/<name>.py``.

    Fenced shell lines must run the tool with ``python``; an inline code
    span may name it bare (``tools/loadgen.py --retries 2``).
    """
    found: set[tuple[str, str]] = set()
    prose, code = split_markdown(text)
    matches = [TOOL_LINE_RE.search(line) for line in join_continuations(code)]
    for line in prose:
        matches.extend(
            INLINE_TOOL_RE.match(span.strip())
            for span in INLINE_CODE_RE.findall(line)
        )
    for match in matches:
        if match:
            tool, tail = match.groups()
            found.update((tool, flag) for flag in FLAG_RE.findall(tail))
    return found


def tool_flags(tool: str) -> set[str] | str:
    """Option strings of ``tool``'s ``build_parser()``, or why there are none.

    The tool is loaded by path, as a module that is not ``__main__``, so
    only its definitions run.
    """
    path = REPO_ROOT / tool
    if not path.is_file():
        return "no such tool"
    spec = importlib.util.spec_from_file_location(f"_docs_tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first, as an import would: dataclasses look their
    # module up in sys.modules while the tool's body runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    build_parser = getattr(module, "build_parser", None)
    if build_parser is None:
        return "it has no build_parser() to check its flags against"
    return {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }


def collect_links(text: str) -> set[str]:
    links: set[str] = set()
    prose, _ = split_markdown(text)
    for line in prose:
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            links.add(target.split("#")[0])
    return links


def check_document(path: Path, verbose: bool) -> list[str]:
    text = path.read_text(encoding="utf-8")
    label = path.relative_to(REPO_ROOT)
    problems: list[str] = []

    symbols = collect_symbols(text)
    for symbol in sorted(symbols):
        failure = resolve_symbol(symbol)
        if failure is not None:
            problems.append(f"{label}: dangling symbol {symbol!r} ({failure})")

    code_flags, prose_flags, commands = collect_cli_flags(text)
    surface = registered_cli_surface()
    known_flags = set().union(*surface.values())
    known_commands = {command[-1] for command in surface if command}
    unknown = {(flag, "") for flag in prose_flags - known_flags}
    for words, flag in code_flags:
        command = command_path(words, surface)
        # An unknown subcommand is reported below; its flags only need
        # to exist somewhere.
        if flag not in (surface[command] if command else known_flags):
            unknown.add((flag, " ".join(command)))
    for flag, command in sorted(unknown):
        where = f" on 'repro {command}'" if command else ""
        problems.append(f"{label}: unknown CLI flag {flag!r}{where}")
    for command in sorted(commands - known_commands):
        problems.append(f"{label}: unknown CLI subcommand {command!r}")

    tool_refs = collect_tool_flags(text)
    for tool in sorted({tool for tool, _ in tool_refs}):
        registered = tool_flags(tool)
        if isinstance(registered, str):
            problems.append(f"{label}: cannot check flags of {tool!r} ({registered})")
            continue
        for flag in sorted(flag for name, flag in tool_refs if name == tool):
            if flag not in registered:
                problems.append(f"{label}: unknown flag {flag!r} on {tool!r}")

    links = collect_links(text)
    for link in sorted(links):
        if link and not (path.parent / link).exists() and not (
            REPO_ROOT / link
        ).exists():
            problems.append(f"{label}: broken link {link!r}")

    if verbose:
        flags = (
            prose_flags
            | {flag for _, flag in code_flags}
            | {flag for _, flag in tool_refs}
        )
        print(
            f"{label}: {len(symbols)} symbols, {len(flags)} flags, "
            f"{len(commands)} subcommands, {len(links)} links",
            file=sys.stderr,
        )
    return problems


def run_checks(verbose: bool = False) -> list[str]:
    documents = [REPO_ROOT / "README.md"]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    problems: list[str] = []
    for path in documents:
        problems.extend(check_document(path, verbose))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="per-document reference counts"
    )
    args = parser.parse_args(argv)
    problems = run_checks(verbose=args.verbose)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} dangling reference(s)", file=sys.stderr)
        return 1
    print("docs check: all references resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
