"""Rules on the source of src/scheme_forge: its syntax tree, and the names
that the benchmark tracer wraps."""

import ast
import importlib
import importlib.util
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scheme_forge"


def test_no_assert_statements():
    """python -O strips assert statements, so a check that matters to
    correctness must raise an error instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d" % (path.name, node.lineno)
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src: %s" % found


def load_tracer():
    """perfbench/tracer.py as a module, without installing its tracer."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every (module, path) that the benchmark tracer wraps names an
    attribute of the package; a dotted path names a method defined on
    that class itself, which is where the tracer patches it.  Renaming a
    traced stage fails here rather than in a traced run."""
    tracer = load_tracer()
    missing = []
    for module, path, _ in tracer.SPANS + tracer.COUNTERS:
        mod = importlib.import_module("scheme_forge." + module)
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(mod, cls_name, object))
        else:
            found = hasattr(mod, path)
        if not found:
            missing.append("%s.%s" % (module, path))
    assert not missing, "traced names that do not resolve: %s" % missing


def test_no_einsum_calls():
    """Every contraction in src goes through cyclo.exact_matmul, whose
    dtype follows a proven bound; np.einsum (and einsum_path) stays in
    the test oracles."""
    paths = sorted(SRC.glob("*.py"))
    found = ["%s:%d" % (path.name, node.lineno)
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", ""))
             .startswith("einsum")]
    assert not found, "einsum calls in src: %s" % found
