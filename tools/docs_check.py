"""Check that the code examples in the documentation cannot rot.

``make docs-check`` runs this against ``docs/*.md`` (plus the top-level
``README.md``). Two kinds of fenced blocks are validated:

- ```` ```python ```` blocks must parse, and every import in them must
  resolve against ``src/``: ``import x`` must be importable and
  ``from x import name`` must also expose ``name``. The block bodies are
  **not** executed — docs may show expensive runs — but a renamed module,
  class or function breaks the check immediately.
- ```` ```bash ```` blocks: every ``python -m repro ...`` command line must
  be accepted by the actual CLI argument parser (unknown subcommands,
  removed or misspelled flags fail). Lines containing placeholders
  (``...`` or ``<``) are skipped.

Additionally, markdown *flag tables* (rows whose first cell is a backticked
``--flag`` and whose second cell backticks subcommand names, like the
README's opt-in feature table) are cross-checked against the argparse
definitions in ``repro.cli``: every listed (flag, command) pair must be an
option the real subparser accepts. Conversely, every opt-in dimension's flag
(``repro.core.spec.FEATURES``) needs a ``README.md`` flag-table row that
names every subcommand whose parser accepts it.

Finally, the instrument and span catalog cannot drift from the docs: every
instrument name ``src/`` passes to ``counter``/``gauge``/``histogram`` and
every span name it emits (the literal first argument of
``record``/``begin``/``_service_span``, plus each chaos event's span) must
appear backticked in ``docs/*.md`` or ``README.md``. A name counts when it
is an identifier inside an inline code span, so ``chaos_events_total{kind}``
documents ``chaos_events_total``.

The stage breakdown cannot outgrow its contract: every stage in
``repro.obs.export.STAGE_ORDER`` must head a row of the "Stage contract"
table in ``docs/observability.md``.

References cannot go stale either: every repository path an inline code
span names (one with a ``/`` ending in ``.py``, ``.md`` or ``.json``,
resolved against the repository root, ``src/`` and ``src/repro/``) must
exist, every ``make <target>`` span must name a Makefile target, and
every dotted ``repro.`` name must resolve: its longest importable module
prefix is imported, and each remaining part must be an attribute.

Run directly:  ``python tools/docs_check.py`` (it adds ``src/`` to the
import path itself).
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

FENCE_RE = re.compile(r"^```(\w*)\s*$")

#: A flag-table row: ``| `--flag ...` | <commands cell> | ...``.
FLAG_ROW_RE = re.compile(r"^\|\s*`(--[\w-]+)[^`]*`\s*\|([^|]*)\|")

INLINE_CODE_RE = re.compile(r"`([^`]+)`")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
#: A repository path inside inline code: ``tests/golden/x.py``, ``core/spec.py``.
PATH_RE = re.compile(r"[\w.-]+(?:/[\w.-]+)+\.(?:py|md|json)\b")
PATH_ROOTS = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
MAKE_RE = re.compile(r"make ([\w-]+)")
#: A dotted name in the package: ``repro.serving.batching.BatchingConfig``.
DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")
#: A table row whose first cell is one backticked name: ``| `sent` | ...``.
TABLE_HEAD_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")
#: The page and the line that introduces the stage contract table.
STAGE_CONTRACT_DOC = REPO_ROOT / "docs" / "observability.md"
STAGE_CONTRACT = "Stage contract"
#: Calls whose literal first argument names an instrument or a span.
NAMING_CALLS = {
    "counter": "instrument", "gauge": "instrument", "histogram": "instrument",
    "record": "span", "begin": "span", "_service_span": "span",
}


def fenced_blocks(text: str) -> Iterator[Tuple[str, int, str]]:
    """Yield (language, first line number, body) for each fenced block."""
    language = None
    start = 0
    body: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = FENCE_RE.match(line.strip())
        if match and language is None:
            language = match.group(1).lower()
            start = number + 1
            body = []
        elif line.strip() == "```" and language is not None:
            yield language, start, "\n".join(body)
            language = None
        elif language is not None:
            body.append(line)


def check_python_block(body: str, where: str) -> List[str]:
    """Parse the block and resolve every import it states."""
    try:
        tree = ast.parse(body)
    except SyntaxError as error:
        return [f"{where}: python block does not parse: {error}"]
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                try:
                    importlib.import_module(alias.name)
                except Exception as error:
                    problems.append(f"{where}: import {alias.name}: {error}")
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never appear in docs
            try:
                module = importlib.import_module(node.module)
            except Exception as error:
                problems.append(f"{where}: from {node.module} import ...: {error}")
                continue
            for alias in node.names:
                if alias.name != "*" and not hasattr(module, alias.name):
                    problems.append(
                        f"{where}: {node.module} has no attribute {alias.name!r}"
                    )
    return problems


def cli_lines(body: str) -> Iterator[str]:
    """Logical ``python -m repro`` commands, honouring ``\\`` continuations."""
    logical = ""
    for line in body.splitlines():
        stripped = line.strip()
        if logical:
            logical += " " + stripped.rstrip("\\").strip()
        elif stripped.startswith("python -m repro"):
            logical = stripped.rstrip("\\").strip()
        else:
            continue
        if not stripped.endswith("\\"):
            yield logical
            logical = ""
    if logical:
        yield logical


def check_bash_block(body: str, where: str) -> List[str]:
    """Feed each documented CLI invocation to the real argument parser."""
    from repro.cli import build_parser

    problems = []
    for command in cli_lines(body):
        if "..." in command or "<" in command:
            continue  # placeholder, not a literal invocation
        # comments=True drops trailing "# ..." annotations.
        argv = shlex.split(command, comments=True)[3:]  # drop "python -m repro"
        parser = build_parser()
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parser.parse_args(argv)
        except SystemExit as error:
            if error.code not in (0, None):
                detail = stderr.getvalue().strip().splitlines()
                problems.append(
                    f"{where}: CLI rejects {command!r}"
                    + (f" ({detail[-1]})" if detail else "")
                )
    return problems


def _subcommand_parsers():
    """Map of subcommand name -> its argparse parser, from the real CLI."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _option_strings(parser) -> Set[str]:
    """Every option string a subcommand's parser accepts."""
    return {
        option for action in parser._actions for option in action.option_strings
    }


def check_flag_table_rows(text: str, display) -> Tuple[List[str], int]:
    """Cross-check flag-table rows against the CLI's argparse definitions.

    A row participates when its first cell is a backticked ``--flag`` and
    its second cell backticks at least one known subcommand name; every
    backticked known command in the cell must then accept the flag. Rows
    whose second cell names no known command (other tables that happen to
    start with a flag) are left alone.
    """
    subparsers = _subcommand_parsers()
    problems: List[str] = []
    rows = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = FLAG_ROW_RE.match(line.strip())
        if not match:
            continue
        flag, commands_cell = match.group(1), match.group(2)
        commands = [
            name
            for name in re.findall(r"`([\w-]+)`", commands_cell)
            if name in subparsers
        ]
        if not commands:
            continue
        rows += 1
        for command in commands:
            if flag not in _option_strings(subparsers[command]):
                problems.append(
                    f"{display}:{number}: table says `{command}` takes "
                    f"{flag}, but the CLI does not accept it"
                )
    return problems, rows


def check_feature_rows(text: str, display) -> List[str]:
    """Every FEATURES flag has a flag-table row naming each command taking it.

    The commands that take a flag are read from the argparse subparsers,
    so registering a feature flag on one more subcommand fails this check
    until the table names that subcommand too.
    """
    from repro.core.spec import FEATURES

    named: Dict[str, Set[str]] = {}
    for line in text.splitlines():
        match = FLAG_ROW_RE.match(line.strip())
        if match:
            named.setdefault(match.group(1), set()).update(
                re.findall(r"`([\w-]+)`", match.group(2))
            )
    problems = []
    for command, parser in _subcommand_parsers().items():
        options = _option_strings(parser)
        for feature in FEATURES:
            if feature.flag in options and command not in named.get(feature.flag, ()):
                problems.append(
                    f"{display}: no flag-table row for {feature.flag} names "
                    f"`{command}`, which accepts it"
                )
    return problems


def emitted_names(paths) -> Dict[str, Dict[str, str]]:
    """Instrument and span names the given modules emit, each mapped to
    where it is first emitted (``file:line``)."""
    found: Dict[str, Dict[str, str]] = {"instrument": {}, "span": {}}
    for path in map(Path, paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.is_relative_to(REPO_ROOT):
            path = path.relative_to(REPO_ROOT)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            kind = NAMING_CALLS.get(called)
            first = node.args[0]
            if (
                kind is not None
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                found[kind].setdefault(first.value, f"{path}:{node.lineno}")
    return found


def chaos_span_names() -> Dict[str, str]:
    """The span each chaos event records: its ``span_name``, else
    ``chaos_{kind}``."""
    from repro.cluster.chaos import _EVENT_KINDS

    return {
        event.span_name or f"chaos_{event.kind}": f"chaos event {kind!r}"
        for kind, (event, _) in _EVENT_KINDS.items()
    }


def inline_code(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, body) of each inline code span outside fenced blocks."""
    fenced = False
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            for code in INLINE_CODE_RE.findall(line):
                yield number, code


def documented_identifiers(texts) -> Set[str]:
    """Identifiers inside inline code spans, outside fenced blocks."""
    return {
        identifier
        for text in texts
        for _number, code in inline_code(text)
        for identifier in IDENTIFIER_RE.findall(code)
    }


def makefile_targets() -> Set[str]:
    text = (REPO_ROOT / "Makefile").read_text()
    return set(re.findall(r"^([\w-]+)\s*:(?!=)", text, re.MULTILINE))


def resolves(name: str) -> bool:
    """Whether a dotted name is a module, or attributes of its longest
    importable module prefix."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for part in parts[end:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def check_references(text: str, display, targets: Set[str]) -> List[str]:
    """Every repository path, ``make`` target and dotted ``repro.`` name
    the text backticks exists."""
    problems = []
    for number, code in inline_code(text):
        for path in PATH_RE.findall(code):
            if not any((root / path).exists() for root in PATH_ROOTS):
                problems.append(f"{display}:{number}: no file {path}")
        for name in DOTTED_RE.findall(code):
            if not resolves(name):
                problems.append(f"{display}:{number}: no name {name}")
        make = MAKE_RE.match(code)
        if make and make.group(1) not in targets:
            problems.append(
                f"{display}:{number}: no Makefile target {make.group(1)!r}"
            )
    return problems


def check_catalog(texts, source_paths) -> List[str]:
    """Every emitted instrument and span name is backticked in the docs."""
    documented = documented_identifiers(texts)
    found = emitted_names(source_paths)
    found["span"].update(chaos_span_names())
    return [
        f"{where}: {kind} {name!r} is not backticked in docs/*.md or README.md"
        for kind, names in found.items()
        for name, where in sorted(names.items())
        if name not in documented
    ]


def check_stage_contract(text: str, display) -> List[str]:
    """Every stage the breakdown reports heads a row of the table that
    follows the line naming the stage contract."""
    from repro.obs.export import STAGE_ORDER

    lines = text.splitlines()
    start = next(
        (index for index, line in enumerate(lines) if STAGE_CONTRACT in line), None
    )
    if start is None:
        return [f"{display}: no {STAGE_CONTRACT!r} table"]
    heads: Set[str] = set()
    in_table = False
    for line in lines[start + 1:]:
        if line.startswith("|"):
            in_table = True
            match = TABLE_HEAD_RE.match(line)
            if match:
                heads.add(match.group(1))
        elif in_table:
            break
    return [
        f"{display}: stage {stage!r} has no row in the {STAGE_CONTRACT!r} table"
        for stage in STAGE_ORDER
        if stage not in heads
    ]


def source_files() -> List[Path]:
    return sorted((REPO_ROOT / "src").rglob("*.py"))


def check_file(path: Path) -> Tuple[List[str], int]:
    problems: List[str] = []
    blocks = 0
    try:
        display = path.relative_to(REPO_ROOT)
    except ValueError:
        display = path
    text = path.read_text()
    for language, line, body in fenced_blocks(text):
        where = f"{display}:{line}"
        if language == "python":
            blocks += 1
            problems.extend(check_python_block(body, where))
        elif language in ("bash", "sh", "shell"):
            blocks += 1
            problems.extend(check_bash_block(body, where))
    table_problems, rows = check_flag_table_rows(text, display)
    problems.extend(table_problems)
    problems.extend(check_references(text, display, makefile_targets()))
    blocks += rows
    return problems, blocks


def main(argv: List[str] = None) -> int:
    paths = [Path(p) for p in (argv or [])]
    if not paths:
        paths = sorted((REPO_ROOT / "docs").glob("*.md"))
        paths.append(REPO_ROOT / "README.md")
    problems: List[str] = []
    checked = 0
    if not argv:
        readme = REPO_ROOT / "README.md"
        problems.extend(check_feature_rows(readme.read_text(), "README.md"))
        problems.extend(
            check_catalog([path.read_text() for path in paths], source_files())
        )
        problems.extend(
            check_stage_contract(
                STAGE_CONTRACT_DOC.read_text(),
                STAGE_CONTRACT_DOC.relative_to(REPO_ROOT),
            )
        )
    for path in paths:
        try:
            file_problems, blocks = check_file(path)
        except OSError as error:
            problems.append(f"{path}: unreadable: {error}")
            continue
        problems.extend(file_problems)
        checked += blocks
    for problem in problems:
        print(f"FAIL {problem}")
    print(
        f"docs-check: {checked} code blocks in {len(paths)} files, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
