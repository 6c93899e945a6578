import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
BENCH = ROOT / "perfbench"


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
