import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
BENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "ebtruth"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment
x = 1  # a comment after code
def f():
    """A function docstring."""
'''


def test_counts_code_lines_only():
    assert _code_lines().code_lines(SOURCE) == 2


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = (1,\n     2)\n")
    assert _code_lines().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     2 a.py", "     2 b.py", "     4 total",
                                                   ""]


def _benchmark_modules(monkeypatch):
    """The benchmark's ``workloads`` and ``tracing`` modules, imported for one
    test and then dropped, so no later test sees the benchmark's modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    own = ("workloads", "tracing", "metrics")
    loaded = [name for name in own if name in sys.modules]
    try:
        return importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name in own:
            if name not in loaded:
                sys.modules.pop(name, None)


def test_the_benchmark_wraps_functions_the_package_has(monkeypatch):
    # the benchmark times each layer by wrapping package functions it names;
    # a name deleted or renamed in the package fails here, not in a
    # benchmark run
    workloads, tracing = _benchmark_modules(monkeypatch)
    pairs = workloads.layer_wrappers(tracing.Tracer())
    assert pairs
    for original, wrapper in pairs:
        assert original.__module__.startswith("ebtruth."), original
        assert getattr(sys.modules[original.__module__], original.__name__) is original
        assert callable(wrapper)


def test_a_traced_conditions_pass_moves_every_layer_it_runs(monkeypatch, tmp_path):
    # the conditions workload's layers: the pass's ψ and ∂ψ kernels, the
    # CRH base, the three checks and the report writers
    workloads, tracing = _benchmark_modules(monkeypatch)
    tracer = tracing.Tracer()
    result = workloads.Conditions(1, str(tmp_path), replicates=300).run_pass(tracer=tracer)
    assert result.failed == 0, result.messages
    values = workloads.layer_metrics(tracer)
    for name in ("analysis.psi_batch.busy_s", "analysis.psi_derivative_dot_batch.busy_s",
                 "analysis.condition_checks.busy_s", "baselines.run_td_batch.crh.busy_s",
                 "analysis.write_reports.bytes"):
        assert values[name] > 0, name


# Exports that nothing but their own unit tests reaches, each kept for a reason.
KEEP_UNREACHED = {
    "blue_risks": "the exact oracle that TestBlueRisks holds simulate's report to",
    "pipeline_base": "any base as an mc_risk pipeline, for simulate's planned base rows",
    "pipeline_eb_wrap": "any base's wrap as an mc_risk pipeline, for simulate's planned wrap rows",
}


def _exports() -> set[str]:
    """The names ``ebtruth/__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _uses(path: Path) -> set[str]:
    """The names, attributes and import aliases a file's code refers to,
    leaving out each top-level statement's references to what it defines."""
    uses = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute):
                own.add(node.attr)
            elif isinstance(node, ast.alias):
                own.update(filter(None, (node.name, node.asname)))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.discard(stmt.name)
        uses |= own
    return uses


def test_every_export_is_reached_by_a_command_a_criterion_or_the_benchmark():
    # the package's own code, the acceptance criteria and the benchmark;
    # a name only its unit tests call is dead weight, to be deleted with them
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *sorted(BENCH.glob("*.py"))]
    exports = _exports()
    reached = set().union(*map(_uses, files))
    assert KEEP_UNREACHED.keys() <= exports
    assert sorted(exports - reached - KEEP_UNREACHED.keys()) == []


def test_the_export_scan_counts_code_only(tmp_path):
    # a name's own definition, an assignment target and a docstring do not
    # reach it; a call, an attribute and an import (name or alias) do
    path = tmp_path / "module.py"
    path.write_text('def recursive(x):\n'
                    '    """Calls named_in_a_docstring."""\n'
                    '    return recursive(x - 1)\n'
                    'from pkg import imported as renamed\n'
                    'assigned = module.attribute_name(called())\n', encoding="utf-8")
    uses = _uses(path)
    assert not uses & {"recursive", "named_in_a_docstring", "assigned"}
    assert {"imported", "renamed", "module", "attribute_name", "called"} <= uses
