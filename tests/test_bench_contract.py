"""The names the benchmark in perfbench/ relies on exist in the library.

The workloads and the correctness gate call the public API as rr.<name>,
and the tracer keys its per-layer metrics on span names "<layer>.<name>"
of public functions. A rename in the library would break a workload or,
worse, silently zero a per-layer metric, so these tests read the
perfbench sources and check every such name against regrisk.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

import regrisk

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("problem", "spectral", "rules", "accum", "study", "lasso")
SPAN_NAME = re.compile(r"^(%s)\.([A-Za-z_]\w*)$" % "|".join(LAYERS))


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _rr_names(name):
    return sorted({
        node.attr for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "rr"
    })


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_names():
    tracer = _tracer()
    names = set(tracer.TABLE_SPANS | tracer.SELECT_SPANS | tracer.EXPORT_SPANS)
    names |= set(tracer.ATTRS)
    # the literal sets handed to layer_metrics' named() lookups
    for call in ast.walk(_tree("tracer.py")):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "named"):
            names |= {node.value for arg in call.args for node in ast.walk(arg)
                      if isinstance(node, ast.Constant)}
    return sorted(names)


@pytest.mark.parametrize("source", ["workloads.py", "gate.py"])
def test_every_rr_name_exists(source):
    names = _rr_names(source)
    assert names, f"no rr.<name> read in perfbench/{source}"
    missing = [name for name in names if not hasattr(regrisk, name)]
    assert not missing, f"perfbench/{source} reads missing names {missing}"


def test_every_traced_span_is_a_public_function_of_its_layer():
    names = _span_names()
    for required in ("accum.neumaier_sum", "lasso.admm_all_at_once",
                     "lasso.lasso_gdf", "rules.filter_table",
                     "rules.dp_select", "study.write_records_csv"):
        assert required in names
    for span in names:
        match = SPAN_NAME.match(span)
        assert match, f"perfbench/tracer.py keys on {span}, outside the layers"
        layer, name = match.groups()
        module = importlib.import_module(f"regrisk.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (
            f"perfbench/tracer.py keys on {span}, which is not a function "
            f"defined in regrisk.{layer}")


def _extras_reads():
    """(workload, regularizer, keys) for every workload function of
    perfbench/workloads.py that reads extras["<key>"]."""
    out = []
    for fn in _tree("workloads.py").body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        keys = {node.slice.value for node in ast.walk(fn)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "extras"
                and isinstance(node.slice, ast.Constant)}
        regularizers = {kw.value.value for kw in ast.walk(fn)
                        if isinstance(kw, ast.keyword) and kw.arg == "regularizer"}
        if keys:
            assert len(regularizers) <= 1, fn.name
            out.append((fn.name, regularizers.pop() if regularizers else "quadratic",
                        sorted(keys)))
    return out


def test_every_extras_key_a_workload_reads_is_set():
    reads = _extras_reads()
    assert {reg for _, reg, _ in reads} == {"quadratic", "lasso"}
    grids = {"quadratic": regrisk.AlphaGrid(-4.0, 2.0, 0.5, includes_infinity=True),
             "lasso": regrisk.AlphaGrid(-2.0, 0.0, 0.5)}
    for workload, regularizer, keys in reads:
        extras = {}
        cfg = regrisk.StudyConfig(
            m=8, n=8, l=0.06, sigma=0.1, grid=grids[regularizer], n_draws=2,
            master_seed=1, regularizer=regularizer,
            admm=regrisk.AdmmParams(max_iter=200))
        regrisk.run_study(cfg, extras=extras)
        missing = [key for key in keys if key not in extras]
        assert not missing, (
            f"perfbench/workloads.py:{workload} reads extras {missing}, which "
            f"run_study does not set for the {regularizer} regularizer")
