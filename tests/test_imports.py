"""The package's import graph: every import sits at module level, is used
by its module, and the modules import one another without a cycle and
along the pinned edges only; every private module-level name is read
somewhere in the package; no module reads the environment; only graphs.py
converts between ints and bytes or checks an id range by hand; every
np.unique call passes a return_* keyword; no function but designs.pg2
forms a matrix product; no check is an assert statement; no module
raises the base MdimlabError itself; no handler of a failed hypothesis
raises another error; every public name, and every public method of an
exported class, is read inside the package; no module reads the
Graph.graph alias that only the benchmark needs; and no test expects a
bare Exception."""

import ast
import dataclasses
import types
from pathlib import Path

import mdimlab
import mdimlab.errors
from mdimlab import HypothesisFailure

MODULES = sorted(Path(mdimlab.__file__).parent.glob("*.py"))


def local_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports inside a function body."""
    return sorted({
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def package_imports(tree: ast.Module) -> set[str]:
    """The sibling modules a module imports with `from .x import ...` or
    `from . import x`."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_import_inside_a_function():
    found = {
        path.name: lines
        for path in MODULES
        if (lines := local_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_import_is_used():
    # __init__ imports to re-export, so it is left out
    found = {
        path.name: names
        for path in MODULES
        if path.name != "__init__.py"
        and (names := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def import_graph() -> dict[str, set[str]]:
    """Each module's stem -> the sibling modules it imports."""
    return {path.stem: package_imports(ast.parse(path.read_text())) for path in MODULES}


def test_module_imports_have_no_cycle():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, stack: tuple[str, ...]) -> None:
        assert module not in stack, " -> ".join(stack + (module,))
        if module in done:
            return
        for dep in graph.get(module, ()):
            visit(dep, stack + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())


# every edge of the import graph; a new or dropped import shows as a diff here
IMPORTS = {
    "__init__": {"cover", "designs", "errors", "families", "graphs", "imprimitivity",
                 "io", "lifting", "mdim"},
    "__main__": {"cli"},
    "cli": {"cover", "designs", "errors", "graphs", "imprimitivity", "io", "lifting",
            "mdim", "verify", "zoo"},
    "cover": {"errors", "graphs"},
    "designs": {"errors", "families", "graphs"},
    "errors": set(),
    "families": {"errors", "graphs"},
    "graphs": {"errors"},
    "imprimitivity": {"designs", "errors", "graphs"},
    "io": {"errors", "graphs"},
    "lifting": {"errors", "families", "graphs", "imprimitivity", "mdim"},
    "mdim": {"cover", "designs", "errors", "graphs"},
    "verify": {"designs", "errors", "graphs", "imprimitivity", "lifting", "mdim", "zoo"},
    "zoo": {"designs", "errors", "families", "graphs"},
}


def test_module_imports_are_the_pinned_edges():
    assert import_graph() == IMPORTS


def private_attributes(tree: ast.Module) -> list[str]:
    """The `x._name` reads and writes whose x is not self or cls (dunders
    such as `super().__init__` are not private)."""
    return sorted({
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    })


def test_no_private_attribute_is_touched_from_outside():
    # graphs.py owns the one memo of a Graph, which its _kept reads as g._memo
    found = {
        path.name: names
        for path in MODULES
        if path.name != "graphs.py"
        and (names := private_attributes(ast.parse(path.read_text())))
    }
    assert found == {}


def private_definitions(tree: ast.Module) -> set[str]:
    """The `_name`s a module binds at module level by def, class or
    assignment (dunders such as __all__ are not private)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = {
        name: sorted(names)
        for name, tree in trees.items()
        if (names := private_definitions(tree) - read)
    }
    assert found == {}


def environment_reads(tree: ast.Module) -> list[int]:
    """Line numbers of the `os.environ` and `os.getenv` reads, and of the
    imports of either from os."""
    names = {"environ", "getenv"}
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in names for alias in node.names)
    })


def test_no_module_reads_the_environment():
    # every input, the node budget included, is an argument
    found = {
        path.name: lines
        for path in MODULES
        if (lines := environment_reads(ast.parse(path.read_text())))
    }
    assert found == {}


def byte_conversions(tree: ast.Module) -> list[int]:
    """Line numbers of the `from_bytes` and `to_bytes` reads."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes")
    })


def test_only_graphs_converts_ints_to_bytes():
    # graphs.py owns the bit-row format (bit v of a row is column v,
    # little-endian); every other module goes through its converters
    found = {
        path.name: lines
        for path in MODULES
        if (lines := byte_conversions(ast.parse(path.read_text())))
    }
    assert set(found) == {"graphs.py"}


def range_comparisons(tree: ast.Module) -> list[int]:
    """Line numbers of the chained range comparisons `0 <= x < y`."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant) and node.left.value == 0
        and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
    })


def test_only_graphs_checks_an_id_range():
    # graphs.as_ids is the one reader of the ids a caller hands in, so
    # no other module checks a range 0..n-1 by hand
    found = {
        path.name: lines
        for path in MODULES
        if (lines := range_comparisons(ast.parse(path.read_text())))
    }
    assert set(found) == {"graphs.py"}


def plain_unique_calls(tree: ast.Module) -> list[int]:
    """Line numbers of the `np.unique` calls that pass no `return_*`
    keyword."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and not any((k.arg or "").startswith("return_") for k in node.keywords)
    })


def test_every_np_unique_call_asks_for_an_index_or_count():
    # under numpy 2.4 a plain np.unique imports numpy.ma (16-19 ms) on its
    # first call in a process; with a return_* keyword it does not
    found = {
        path.name: lines
        for path in MODULES
        if (lines := plain_unique_calls(ast.parse(path.read_text())))
    }
    assert found == {}


PRODUCT_CALLS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def matrix_products(tree: ast.Module) -> list[str]:
    """The module-level def or class around each matrix product, or
    "<module>" outside them: each `@`, `@=`, and call of an attribute named
    dot, matmul, einsum, inner or tensordot (np.dot and ndarray.dot alike)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in PRODUCT_CALLS):
                found.append(getattr(top, "name", "<module>"))
    return sorted(found)


def test_no_module_forms_a_matrix_product_but_pg2():
    # graphs._gram is the package's one count of the columns two 0/1 rows
    # share, exact and free of BLAS calls (a float matmul costs a 5.6 MiB
    # work buffer) and of numpy's plain integer matmul loop; pg2's product
    # of coordinate triples is the one matrix product left
    probe = ("a @ b\nc @= d\nnp.dot(a, b)\nx.dot(y)\nnp.matmul(a, b)\n"
             "np.einsum('ij->i', a)\nnp.inner(a, b)\nnp.tensordot(a, b)\n"
             "def f():\n    return a @ b\nclass C:\n    def g(self):\n        return a @ b\n")
    assert matrix_products(ast.parse(probe)) == ["<module>"] * 8 + ["C", "f"]
    found = {
        path.name: names
        for path in MODULES
        if (names := matrix_products(ast.parse(path.read_text())))
    }
    assert found == {"designs.py": ["pg2"]}

def assert_statements(tree: ast.Module) -> list[int]:
    """Line numbers of the assert statements."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_check_is_an_assert():
    # python -O strips assert statements, and with them the check; a
    # failed check raises one of the package's errors instead
    found = {
        path.name: lines
        for path in MODULES
        if (lines := assert_statements(ast.parse(path.read_text())))
    }
    assert found == {}


def base_error_raises(tree: ast.Module) -> list[int]:
    """Line numbers of the raise statements that raise MdimlabError itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "MdimlabError":
                found.append(node.lineno)
    return sorted(found)


def test_no_module_raises_the_base_error():
    # every deliberate error falls in one of the families errors.py names
    found = {
        path.name: lines
        for path in MODULES
        if (lines := base_error_raises(ast.parse(path.read_text())))
    }
    assert found == {}


# the error classes an `except` naming them would catch a HypothesisFailure with
HYPOTHESIS_CATCHERS = {
    name for name, cls in vars(mdimlab.errors).items()
    if isinstance(cls, type)
    and (issubclass(cls, HypothesisFailure) or issubclass(HypothesisFailure, cls))
}


def translating_handlers(tree: ast.Module) -> list[int]:
    """Line numbers of the `except` handlers that catch a HypothesisFailure
    by one of its classes (or MdimlabError) and hold a raise."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None) for k in kinds}
        if names & HYPOTHESIS_CATCHERS and any(
            isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)
        ):
            found.add(node.lineno)
    return sorted(found)


def test_no_handler_translates_a_failed_hypothesis():
    # a failed hypothesis reaches the caller as raised, witness and all; a
    # handler may answer False or None for it but not raise something else
    found = {
        path.name: lines
        for path in MODULES
        if (lines := translating_handlers(ast.parse(path.read_text())))
    }
    assert found == {}


def context_vars(tree: ast.Module) -> list[int]:
    """Line numbers of the ContextVar constructions."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "ContextVar"
             or getattr(node.func, "attr", None) == "ContextVar")
    })


def test_one_run_memo():
    # zoo._RUN keeps a verify run's builds and solves alike; a second
    # run-scoped memo would be a second lifetime to set and reset
    probe = "a = ContextVar('a')\nb = contextvars.ContextVar('b')\nc = ContextVar"
    assert context_vars(ast.parse(probe)) == [1, 2]
    found = {
        path.name: len(lines)
        for path in MODULES
        if (lines := context_vars(ast.parse(path.read_text())))
    }
    assert found == {"zoo.py": 1}


# exported names that no module reads yet, each with the reason it stays
KEEP = {
    "descendant_extract": "ROADMAP item 3 reads it for the descendant lower bounds",
    "project_to_folded": "ROADMAP item 3 reads it for the folded lower bounds",
    "is_distance_regular": "the predicate form of intersection_array",
}


def package_reads(tree: ast.Module) -> set[str]:
    """The names a module loads and the attributes it touches."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_public_name_is_read_in_the_package():
    # a name that only __init__ re-exports and only tests call is surface
    # that nothing uses; KEEP names the exceptions, and a name that gains a
    # reader leaves KEEP
    read = set().union(*(
        package_reads(ast.parse(path.read_text()))
        for path in MODULES if path.name != "__init__.py"
    ))
    public = {
        name for name in mdimlab.__all__
        if not isinstance(getattr(mdimlab, name), types.ModuleType)
    }
    assert sorted(public - read) == sorted(KEEP)


def exported_classes() -> list[type]:
    return [obj for name in mdimlab.__all__ if isinstance(obj := getattr(mdimlab, name), type)]


def public_methods() -> dict[str, str]:
    """"Class.name" -> name for each public method and property that an
    exported class defines."""
    return {
        f"{cls.__name__}.{name}": name
        for cls in exported_classes()
        for name, obj in vars(cls).items()
        if not name.startswith("_")
        and isinstance(obj, (types.FunctionType, property, classmethod, staticmethod))
    }


# public methods named like a field of an exported class, so that a read of
# the name does not tell which of the two it reads; each with its reader
SHARED_NAMES = {
    "IntersectionArray.k": "classify_ah reads ia.k",
}


def test_every_public_method_is_read_in_the_package():
    # a method is reached as an attribute, so only attribute reads count;
    # a method that only tests call is surface that nothing uses
    read = {
        node.attr
        for path in MODULES if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert sorted(q for q, name in public_methods().items() if name not in read) == []


def graph_attribute_reads(tree: ast.Module, parsed_args: frozenset[str]) -> list[int]:
    """Line numbers of the reads of an attribute named graph, other than the
    spec reader zoo.graph and the graph-file argument of parsed_args."""
    allowed = {"zoo"} | parsed_args
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "graph"
        and not (isinstance(node.value, ast.Name) and node.value.id in allowed)
    })


def test_no_module_reads_the_graph_alias():
    # Graph.graph returns the graph itself and stays only for the frozen
    # perfbench/workloads.py (ROADMAP item 18); the test above passes it only
    # because zoo.graph shares its name, so this one keeps it unread here
    probe = "g = taylor(base).graph\nh = zoo.graph(spec)\nf = args.graph"
    assert graph_attribute_reads(ast.parse(probe), frozenset({"args"})) == [1]
    assert graph_attribute_reads(ast.parse(probe), frozenset()) == [1, 3]
    found = {
        path.name: lines
        for path in MODULES
        # cli.py's parsed arguments are args in its functions and a in its lambdas
        if (lines := graph_attribute_reads(
            ast.parse(path.read_text()),
            frozenset({"args", "a"}) if path.name == "cli.py" else frozenset()))
    }
    assert found == {}


def test_a_method_named_like_a_field_has_a_stated_reader():
    fields = {
        name
        for cls in exported_classes()
        for name in ([f.name for f in dataclasses.fields(cls)]
                     if dataclasses.is_dataclass(cls) else getattr(cls, "__slots__", ()))
    }
    shared = [q for q, name in public_methods().items() if name in fields]
    assert sorted(shared) == sorted(SHARED_NAMES)


def bare_exception_expectations(tree: ast.Module) -> list[int]:
    """Line numbers of the `pytest.raises(Exception)` calls."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
        and node.args and ast.unparse(node.args[0]) == "Exception"
    })


def test_no_test_expects_a_bare_exception():
    # pytest.raises(Exception) passes on any crash, an IndexError from a
    # missing range check included; a test names the error it expects
    assert bare_exception_expectations(ast.parse("pytest.raises(Exception)")) == [1]
    found = {
        path.name: lines
        for path in sorted(Path(__file__).parent.glob("test_*.py"))
        if (lines := bare_exception_expectations(ast.parse(path.read_text())))
    }
    assert found == {}
