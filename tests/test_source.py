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
    """Every product over Z[zeta_m] in src goes through
    cyclo.exact_matmul, whose dtype follows a proven bound, and every
    product over digits is a matmul in the index dtype, which
    AbelianSpace sizes to hold it; np.einsum (and einsum_path) stays in
    the test oracles."""
    paths = sorted(SRC.glob("*.py"))
    found = ["%s:%d" % (path.name, node.lineno)
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", ""))
             .startswith("einsum")]
    assert not found, "einsum calls in src: %s" % found


def test_space_imports_nothing_from_cyclo():
    """The arrays over X (psi, negation, every map, the pairing rows)
    are integer products over the digit rows of X = A x B and calls of
    the group law, none a product over Z[zeta_m]: space.py imports
    nothing from .cyclo."""
    path = SRC / "space.py"
    found = ["space.py:%d" % node.lineno
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and (
                 node.module == "cyclo"
                 or any(alias.name == "cyclo" for alias in node.names))]
    assert not found, "imports from cyclo in space.py: %s" % found


def test_no_source_reads_a_digits_attribute():
    """No space keeps the digits of all points: src reads digits through
    the space's one decoder (digits_of), never as an attribute
    `digits`."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "digits"]
    assert not found, "digits attributes read in src: %s" % found


def test_every_definition_has_a_use():
    """Every module-level function or class of src/scheme_forge is named
    somewhere in src outside its own definition, listed in the package's
    __all__, or wrapped by the benchmark tracer: code with no caller in
    src belongs in the tests, as an oracle, or nowhere."""
    tracer = load_tracer()
    wrapped = {path.split(".")[0] for _, path, _ in
               tracer.SPANS + tracer.COUNTERS}
    exported = set(importlib.import_module("scheme_forge").__all__)
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, top.name))
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            # a definition's own body (recursion) does not count
            names.discard(getattr(top, "name", None))
            used |= names
    unused = ["%s:%s" % (module, name) for module, name in defined
              if name not in used | exported | wrapped]
    assert not unused, "definitions with no use in src: %s" % unused


def test_no_source_calls_the_test_oracles():
    """constancy_test and pairing_table are defined in src only for the
    tests and the benchmark tracer: no function of src calls them, so
    the adjoint lemma stays the one proof of constancy and no command
    builds the |X|^2 pairing table."""
    oracles = {"constancy_test", "pairing_table"}
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in oracles]
    assert not found, "test oracles called in src: %s" % found


def test_regen_golden_renders_the_committed_tables():
    """tests/regen_golden.py prints each golden table in the form that
    tests/test_acceptance.py holds it: rendered from the committed
    values, each table is verbatim in that module's source."""
    import regen_golden
    import test_acceptance as golden
    source = pathlib.Path(golden.__file__).read_text()
    for name in ("GOLDEN_CERTIFICATES", "GOLDEN_REPORTS",
                 "GOLDEN_DUAL_STDOUT"):
        assert regen_golden.render(name, getattr(golden, name)) in source


def test_every_cli_flag_is_read():
    """Every dest that cli.make_parser creates by add_argument is read as
    args.<dest> somewhere in cli.py: a flag that no command reads would
    be accepted and then ignored."""
    tree = ast.parse((SRC / "cli.py").read_text())
    parser = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "make_parser")
    dests = set()
    for node in ast.walk(parser):
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", None) == "add_argument":
            dest = {kw.arg: kw.value.value for kw in node.keywords
                    if kw.arg == "dest"}.get("dest")
            dests.add(dest or node.args[0].value.lstrip("-")
                      .replace("-", "_"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert dests >= {"config", "config_b", "out", "size_bound",
                     "matrix_bound"}
    assert not dests - read, "flags no command reads: %s" % sorted(
        dests - read)
