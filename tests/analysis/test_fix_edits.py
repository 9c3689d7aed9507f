"""Fix edits ride on the findings that raise them: ``__all__`` splices
after a trailing comma, shared edits applied once, the unparsable-result
guard, edits kept out of a finding's identity, lines counted as the AST
counts them, and a tree that holds nothing ``--fix`` would rewrite."""

import dataclasses
from pathlib import Path

import pytest

from repro.analysis import apply_fixes, fix_source, fixes, lint_source

ROOT = Path(__file__).resolve().parents[2]

CLOCK_MODULE = "src/repro/engine/clock.py"
EVENTS_MODULE = "src/repro/engine/events.py"
SERVE_MODULE = "src/repro/serve/pump.py"

EVENTS = (
    "\n\nclass EngineEvent:\n    pass\n"
    "\n\nclass TickEvent(EngineEvent):\n    pass\n"
    "\n\nclass DoneEvent(EngineEvent):\n    pass\n"
)


@pytest.mark.parametrize(
    "header,expected",
    [
        (
            '__all__ = ["EngineEvent",]\n',
            '__all__ = ["EngineEvent", "TickEvent", "DoneEvent",]\n',
        ),
        (
            '__all__ = ("EngineEvent",)\n',
            '__all__ = ("EngineEvent", "TickEvent", "DoneEvent",)\n',
        ),
    ],
    ids=["list", "tuple"],
)
def test_fix_splices_after_a_trailing_comma(header, expected):
    fixed, n = fix_source(header + EVENTS, EVENTS_MODULE)
    assert n == 2
    assert fixed == expected + EVENTS
    assert fix_source(fixed, EVENTS_MODULE) == (fixed, 0)


def test_fix_multiline_all_gives_its_last_element_a_comma():
    source = '__all__ = [\n    "EngineEvent"\n]\n' + EVENTS
    fixed, n = fix_source(source, EVENTS_MODULE)
    assert n == 2
    assert fixed == (
        '__all__ = [\n    "EngineEvent",\n    "TickEvent",\n'
        '    "DoneEvent",\n]\n' + EVENTS
    )


def test_findings_sharing_an_edit_apply_it_once():
    source = (
        "import time\n\n\nasync def pump():\n"
        "    time.sleep(1)\n    time.sleep(2)\n"
    )
    fixed, n = fix_source(source, SERVE_MODULE)
    assert n == 2
    assert fixed == (
        "import time\nimport asyncio\n\n\nasync def pump():\n"
        "    await asyncio.sleep(1)\n    await asyncio.sleep(2)\n"
    )


@pytest.mark.parametrize(
    "module,line,fixed_line",
    [
        (CLOCK_MODULE, 'x = "é"; t = time.time()', 'x = "é"; t = time.perf_counter()'),
        (SERVE_MODULE, 'x = "é"; time.sleep(1)', 'x = "é"; await asyncio.sleep(1)'),
    ],
    ids=["clock", "sleep"],
)
def test_fix_columns_count_bytes_like_the_ast(module, line, fixed_line):
    # ast columns are UTF-8 byte offsets: a non-ASCII character earlier
    # on the line must not shift the edit
    source = f"import asyncio\nimport time\n\n\nasync def pump():\n    {line}\n"
    fixed, n = fix_source(source, module)
    assert n == 1
    assert fixed == source.replace(line, fixed_line)


def test_fix_edits_stay_out_of_a_findings_identity():
    (finding,) = lint_source(
        "import time\n\nstart = time.time()\n",
        CLOCK_MODULE,
        ["no-wall-clock"],
    )
    assert finding.fix == ((3, 13, 17, "perf_counter"),)
    assert finding == dataclasses.replace(finding, fix=())
    assert hash(finding) == hash(dataclasses.replace(finding, fix=()))
    assert "fix" not in finding.to_dict()


@pytest.mark.parametrize(
    "separator", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_break_only_where_the_ast_counts_them(separator):
    # str.splitlines() would also break at these (in a comment, where
    # Python takes any of them), moving the AST's line 3 off line 3
    source = f"import time\n# {separator}\nstart = time.time()\n"
    (finding,) = lint_source(source, CLOCK_MODULE, ["no-wall-clock"])
    assert (finding.line, finding.code) == (3, "start = time.time()")
    assert fix_source(source, CLOCK_MODULE) == (
        source.replace("time.time()", "time.perf_counter()"),
        1,
    )


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_every_ast_line_end_counts(newline):
    source = newline.join(["import time", "", "start = time.time()", ""])
    (finding,) = lint_source(source, CLOCK_MODULE, ["no-wall-clock"])
    assert (finding.line, finding.code) == (3, "start = time.time()")
    assert fix_source(source, CLOCK_MODULE)[0] == source.replace(
        "time.time()", "time.perf_counter()"
    )


def clock_file(root: Path, text: str) -> Path:
    target = root / "src" / "repro" / "engine" / "clock.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def test_unparsable_fix_raises_with_the_file_name(tmp_path, monkeypatch):
    clock_file(tmp_path, "import time\n\nstart = time.time()\n")
    monkeypatch.setattr(
        fixes, "_apply_edits", lambda source, edits: source + "(\n"
    )
    with pytest.raises(ValueError, match="src/repro/engine/clock.py"):
        apply_fixes(tmp_path, dry_run=True)


def test_files_that_never_parsed_are_skipped(tmp_path):
    target = clock_file(tmp_path, "def broken(:\n    time.time()\n")
    result = apply_fixes(tmp_path)
    assert (result.files_scanned, result.n_edits) == (1, 0)
    assert target.read_text(encoding="utf-8").startswith("def broken(:")


def test_tree_holds_nothing_fix_would_rewrite():
    assert apply_fixes(ROOT, dry_run=True).n_edits == 0
