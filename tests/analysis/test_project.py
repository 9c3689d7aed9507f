"""The whole-program model: symbol table, import graph, call graph,
and the single-parse guarantee of the lint pipeline."""

import ast
from collections import Counter
from pathlib import Path

from repro.analysis import (
    build_project,
    lint_repo,
    set_parse_listener,
)
from repro.analysis.project import (
    ConstantInfo,
    FunctionInfo,
    module_name_for,
    usage_tokens,
)


def write_tree(tmp_path: Path, files: dict) -> Path:
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
    return tmp_path


MINI = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": (
        "from .schedule import Schedule\n\n__all__ = [\"Schedule\"]\n"
    ),
    "src/repro/core/schedule.py": (
        "N_USERS = 4\n"
        "\n"
        "\n"
        "class Schedule:\n"
        "    def cost(self, makespan_s: float = 0.0) -> float:\n"
        "        return makespan_s\n"
    ),
    "src/repro/sched/__init__.py": "from . import olar\n",
    "src/repro/sched/base.py": (
        "from ..core.schedule import Schedule\n"
        "\n"
        "\n"
        "class Scheduler:\n"
        "    def schedule(self, problem) -> \"Schedule\":\n"
        "        raise NotImplementedError\n"
    ),
    "src/repro/sched/olar.py": (
        "from .base import Scheduler\n"
        "\n"
        "\n"
        "class Olar(Scheduler):\n"
        "    def schedule(self, problem, greedy=True):\n"
        "        return helper(problem)\n"
        "\n"
        "\n"
        "def helper(problem):\n"
        "    return problem\n"
    ),
}


def build_mini(tmp_path: Path):
    root = write_tree(tmp_path, MINI)
    files = sorted((root / "src").rglob("*.py"))
    ctx, errors = build_project(root, files)
    assert errors == []
    assert ctx.graph is not None
    return ctx, ctx.graph


def test_module_name_for():
    assert module_name_for("src/repro/sched/base.py") == "repro.sched.base"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("tests/test_x.py") is None
    assert module_name_for("src/repro/data.json") is None


def test_symbol_table(tmp_path):
    _, graph = build_mini(tmp_path)
    sched = graph.modules["repro.core.schedule"]
    assert isinstance(sched.constants["N_USERS"], ConstantInfo)
    cls = sched.classes["Schedule"]
    cost = cls.methods["cost"]
    assert isinstance(cost, FunctionInfo)
    assert cost.params == ("self", "makespan_s")
    init = graph.modules["repro.core"]
    assert init.exports == ("Schedule",)


def test_relative_imports_resolve(tmp_path):
    _, graph = build_mini(tmp_path)
    base = graph.modules["repro.sched.base"]
    # `from ..core.schedule import Schedule` inside repro/sched/base.py
    assert base.bindings["Schedule"] == "repro.core.schedule.Schedule"
    assert ("repro.core.schedule", "Schedule") in base.import_records


def test_cross_module_subclass_resolution(tmp_path):
    _, graph = build_mini(tmp_path)
    olar_mod = graph.modules["repro.sched.olar"]
    olar = olar_mod.classes["Olar"]
    assert graph.inherits_from("repro.sched.olar", olar, "Scheduler")
    assert not graph.inherits_from("repro.sched.olar", olar, "Protocol")
    found = graph.find_method("repro.sched.olar", olar, "schedule")
    assert found is not None
    assert found[2].params[:2] == ("self", "problem")


def test_resolve_symbol_follows_reexports(tmp_path):
    _, graph = build_mini(tmp_path)
    # repro.core re-exports Schedule from repro.core.schedule
    resolved = graph.resolve_symbol("repro.core", "Schedule")
    assert resolved is not None
    module, name = resolved
    assert module.name == "repro.core.schedule"
    assert name == "Schedule"


def test_call_sites_resolve_through_bindings(tmp_path):
    _, graph = build_mini(tmp_path)
    olar_mod = graph.modules["repro.sched.olar"]
    (call,) = [
        node
        for node in ast.walk(olar_mod.ctx.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "helper"
    ]
    resolved = graph.resolve_call(olar_mod.ctx, "Olar", call)
    assert resolved is not None
    assert resolved.key == "repro.sched.olar.helper"
    assert resolved.fn.name == "helper"
    assert not resolved.bound


def test_usage_tokens_exclude_imports_and_all():
    source = (
        "from x import alpha\n"
        "import beta\n"
        "__all__ = [\n"
        "    \"gamma\",\n"
        "]\n"
        "value = delta()\n"
    )
    tokens = usage_tokens(source, None)
    assert "delta" in tokens
    assert "alpha" not in tokens
    assert "gamma" not in tokens


def test_lint_repo_parses_each_file_exactly_once_mini(tmp_path):
    root = write_tree(tmp_path, MINI)
    counts: Counter = Counter()
    set_parse_listener(lambda module: counts.update([module]))
    try:
        report = lint_repo(root)
    finally:
        set_parse_listener(None)
    assert report.files_checked == len(MINI)
    assert len(counts) == report.files_checked
    assert set(counts.values()) == {1}


def test_lint_repo_parses_each_file_exactly_once_real_repo(repo_lint):
    """The single-parse guarantee on this very checkout: every source
    file goes through the one parse seam exactly once per invocation,
    no matter how many rules consume the tree."""
    report, counts = repo_lint
    assert report.files_checked > 50
    assert len(counts) == report.files_checked
    most_parsed, n = counts.most_common(1)[0]
    assert n == 1, f"{most_parsed} parsed {n} times"
