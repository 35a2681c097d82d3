"""The package's public surface: ``__all__``, which the package computes
from its imports, the second routes that left it for the test oracles, the
README's library example, no import that a package or test module never
reads, no ``assert`` statement, no read of the Smith factors ``u`` and
``u_inverse``, no read of a Smith form's operation logs outside
``exact_linalg``, one function that applies a log to plain lines and one
to lines kept with a cross index, one class that sorts a chain's indices,
the two places that make a Smith form, the one that builds B, the two
that read a tree off an RREF and the functions whose spans the benchmark
reads."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hyperhomology
import oracles
from hyperhomology import exact_linalg

# the package re-exports the function ``homology`` under the module's name
homology_module = importlib.import_module("hyperhomology.homology")

PUBLIC = [
    "BUILTIN_EXAMPLES",
    "Chain",
    "Cochain",
    "DecompositionReport",
    "ExactMatrix",
    "GraphLikenessReport",
    "HomologyReport",
    "HypergraphValidationError",
    "InternalInconsistencyError",
    "ModuleStructure",
    "OrientedHypergraph",
    "Ring",
    "SearchLimitExceeded",
    "SnfDecomposition",
    "SpanningTree",
    "TreeAxiomsReport",
    "Witness",
    "boundary",
    "boundary_functional",
    "boundary_inner_product",
    "boundary_matrix",
    "canonical_inner_product",
    "chain_to_cochain",
    "coboundary",
    "cochain_to_chain",
    "cycle_cut_decomposition",
    "find_spanning_tree_integer",
    "find_spanning_tree_rational",
    "graph_likeness",
    "homology",
    "is_integral",
    "main_example",
    "parallel_edges",
    "path_graph",
    "random_hypergraph",
    "smith_normal_form",
    "triangle_graph",
    "validation_report",
    "vector_space_spanning_tree",
    "verify_tree_axioms",
]

# Second routes to facts the package decides one way; the oracles hold them.
MOVED_TO_ORACLES = [
    "PerpComparison",
    "_lattice_contains_all",
    "annihilator_basis",
    "annihilator_of_cycles",
    "boundary_functional_injectivity_check",
    "boundary_functional_lattice",
    "cohomology_hom_iso_check",
    "cycles_equal_cut_perp_check",
    "image_basis",
    "image_rank",
    "is_direct_summand",
    "kernel_basis",
    "lattice_contains",
    "quotient_structure",
    "represents_dualized_boundary",
    "solve_integer",
    "solve_rational",
    "sublattice_equal",
]

# ``cycle_cut_decomposition(h, Ring.RATIONAL)`` is the one route.
DELETED_ALIAS = "orthogonal_decomposition_rational"

PACKAGE_MODULES = sorted(Path(hyperhomology.__file__).resolve().parent.glob("*.py"))


def test_public_names_are_pinned_and_resolve():
    assert sorted(hyperhomology.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(hyperhomology, name)


def test_second_routes_left_the_package_for_the_oracles():
    for name in MOVED_TO_ORACLES + [DELETED_ALIAS]:
        for module in (hyperhomology, exact_linalg, homology_module):
            with pytest.raises(AttributeError):
                getattr(module, name)
    for name in MOVED_TO_ORACLES:
        getattr(oracles, name)
    assert not hasattr(oracles, DELETED_ALIAS)
    # helpers that no package code calls; the tests build or inline them
    absent = ("apply", "__matmul__", "from_columns", "identity", "zeros", "columns", "entry", "column")
    for method in absent:
        assert not hasattr(hyperhomology.ExactMatrix, method)
    assert not hasattr(hyperhomology.SnfDecomposition, "solve")
    for record in (hyperhomology.Chain, hyperhomology.Cochain):
        assert not hasattr(record, "from_vector")
    for method in ("is_graph", "tails", "heads"):
        assert not hasattr(hyperhomology.OrientedHypergraph, method)


# The spans ``perfbench/run.py`` turns into per-layer metrics and the
# tracer's counters read, as ``module.function``.  A function moved or
# renamed out of one would read 0 calls and 0 s there rather than fail.
TRACED_SPANS = [
    "cli.parse_document",
    "cli.run_command",
    "core.validation_report",
    "boundary.boundary_matrix",
    "exact_linalg.smith_normal_form",
    "homology.graph_likeness",
    "homology.homology",
    "homology.cycle_cut_decomposition",
    "spanning_tree.find_spanning_tree_rational",
    "spanning_tree.find_spanning_tree_integer",
    "spanning_tree.verify_tree_axioms",
    "spanning_tree.is_integral",
    "fixtures.random_hypergraph",
]


@pytest.mark.parametrize("span", TRACED_SPANS)
def test_benchmark_span_names_are_traceable_functions(span):
    # the tracer wraps a module attribute only when it is a public function
    # defined in that module and bound under its own name
    layer, attr = span.split(".")
    module = importlib.import_module(f"hyperhomology.{layer}")
    value = getattr(module, attr, None)
    assert inspect.isfunction(value), span
    assert value.__module__ == module.__name__, span
    assert not attr.startswith("_") and value.__name__ == attr, span


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def _unread_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that the module never
    reads (a load of the name, or a string in ``__all__``), in import
    order; ``from __future__`` imports bind nothing to read.  An
    ``__all__`` computed from ``globals()`` reads every public name, one
    not starting with ``_``, so only a private import can stay unread."""
    tree = ast.parse(source)
    bound = []
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            for node in ast.walk(statement.value):
                if isinstance(node, ast.Constant):
                    read.add(node.value)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals":
                    read |= {name for name in bound if not name.startswith("_")}
    return [name for name in bound if name not in read]


def test_unread_import_scan_sees_aliases_dotted_names_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import gcd, lcm as least\n"
        "from .core import Chain, Ring\n"
        "__all__ = ['Chain']\n"
        "def f(x: Ring):\n"
        "    return gcd(x, 1)\n"
    )
    assert _unread_imports(source) == ["os", "system", "least"]
    computed = (
        "from math import gcd, lcm as _least, prod as _product\n"
        "from .core import Chain\n"
        "__all__ = sorted(name for name in globals() if name != _product)\n"
    )
    assert _unread_imports(computed) == ["_least"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_package_modules_read_every_name_they_import(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def _unread_local_imports(source: str) -> list[str]:
    """The names that an import inside a function binds and that function
    never reads, in source order; ``from __future__`` is exempt."""
    unread = []
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {
                node.id
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for node in ast.walk(function):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                    unread += [(node.lineno, name) for name in names if name not in read]
    return [name for _, name in sorted(set(unread))]


def test_local_import_scan_sees_each_function_apart():
    source = (
        "import os\n"
        "def f():\n"
        "    import sys, json as codec\n"
        "    from math import gcd\n"
        "    def g():\n"
        "        from fractions import Fraction\n"
        "        return os, gcd\n"
        "    return sys, g, Fraction\n"
    )
    assert _unread_local_imports(source) == ["codec", "Fraction"]


TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize(
    "path",
    PACKAGE_MODULES + TEST_MODULES,
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_package_and_test_modules_read_every_name_they_import(path):
    # a leftover import, at the top or inside a function, fails here; the
    # package's ``__init__`` re-exports through ``__all__``
    source = path.read_text(encoding="utf-8")
    assert _unread_imports(source) + _unread_local_imports(source) == []


def _assert_lines(source: str) -> list[int]:
    """The line of every ``assert`` statement in a module, which
    ``python -O`` strips."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_sees_nested_statements():
    source = "def f(x):\n    if x:\n        assert x > 0, x\n    return x\nassert f\n"
    assert sorted(_assert_lines(source)) == [3, 5]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_package_modules_check_without_assert(path):
    # a self-check must hold under python -O, so it raises instead
    assert _assert_lines(path.read_text(encoding="utf-8")) == []


def _attribute_reads(source: str, names: set[str]) -> list[int]:
    """The line of every read of an attribute named in ``names``, on any
    object, in a module."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
    )


def test_attribute_scan_sees_reads_not_definitions():
    source = (
        "class S:\n"
        "    def u(self):\n"
        "        return 1\n"
        "x = d.u_inverse.column(0)\n"
        "y = f(d).u\n"
    )
    assert _attribute_reads(source, {"u", "u_inverse"}) == [4, 5]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_package_modules_read_no_u(path):
    # no report builds U or U^-1: the reports read S, V and V^-1 only, and
    # the factors stay for readers outside the package
    source = path.read_text(encoding="utf-8")
    assert _attribute_reads(source, {"u", "u_inverse"}) == []


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_only_exact_linalg_reads_the_operation_logs(path):
    # a Smith form's logs are applied and inverted in ``exact_linalg``
    # alone: each factor is one ``_apply`` of its log on the identity
    reads = _attribute_reads(path.read_text(encoding="utf-8"), {"row_log", "column_log"})
    assert bool(reads) == (path.name == "exact_linalg.py"), reads


def _is_call(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _scopes(source: str, matches) -> list[str]:
    """The dotted name of the function or class body around each node of a
    module that ``matches`` accepts, in source order (``""`` at module
    level)."""
    found = []

    def visit(node, scope):
        if matches(node):
            found.append((node.lineno, ".".join(scope)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return [where for _, where in sorted(found)]


def _calls(source: str, name: str, argument: str | None = None) -> list[str]:
    """The scopes (:func:`_scopes`) of each call of ``name`` in a module;
    with ``argument``, only the calls whose first argument is a call of
    it."""
    return _scopes(
        source,
        lambda node: _is_call(node, name)
        and (argument is None or (node.args and _is_call(node.args[0], argument))),
    )


def test_call_scan_names_the_enclosing_scopes():
    source = (
        "f(1)\n"
        "class A:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            return f(2)\n"
        "        return f(h())\n"
        "    x = m.f(3)\n"
    )
    assert _calls(source, "f") == ["", "A.g.h", "A.g"]


def test_call_scan_with_an_argument_sees_only_that_call_first():
    source = (
        "a = dict(sorted(x.items()))\n"
        "class C:\n"
        "    def f(self, y):\n"
        "        b = dict(y), sorted(dict(y)), dict(list(sorted(y))), dict(y, z=sorted(y))\n"
        "        return dict(sorted(y), z=1)\n"
    )
    assert _calls(source, "dict", "sorted") == ["", "C.f"]


def _package_calls(name: str, argument: str | None = None) -> dict[str, list[str]]:
    """``{module file: scopes}`` of every call of ``name`` in the package,
    with ``argument`` as :func:`_calls` reads it."""
    calls = {
        path.name: _calls(path.read_text(encoding="utf-8"), name, argument)
        for path in PACKAGE_MODULES
    }
    return {module: where for module, where in calls.items() if where}


def test_only_the_chain_constructors_sort_a_chain():
    # ``Chain`` and ``Cochain`` put their indices in ascending order when
    # made, by the constructor or by ``_of``, so no producer sorts a vector
    # before it wraps it
    assert _package_calls("dict", "sorted") == {
        "core.py": ["_FormalSum.__init__", "_FormalSum._of"],
    }


def _cross_index_removals(source: str) -> list[str]:
    """The dotted scope of each removal of an entry from a line of a list
    of lines, ``del x[i][j]`` or ``x[i].pop(j)``, in source order: what a
    function that keeps lines in step with their cross index must do when
    an entry cancels or a line moves."""
    found = []

    def visit(node, scope):
        removed = (
            [target for target in node.targets if isinstance(target, ast.Subscript)]
            if isinstance(node, ast.Delete)
            else []
        )
        if any(isinstance(target.value, ast.Subscript) for target in removed) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and isinstance(node.func.value, ast.Subscript)
        ):
            found.append((node.lineno, ".".join(scope)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return [where for _, where in sorted(found)]


def test_cross_index_scan_sees_deletes_and_pops_of_nested_entries():
    source = (
        "def f(rows, cols, y):\n"
        "    del rows[0][1], y[2]\n"
        "    del y[3]\n"
        "    class A:\n"
        "        def g(self):\n"
        "            return cols[1].pop(0), y.pop(1)\n"
    )
    assert _cross_index_removals(source) == ["f", "f.A.g"]


def test_every_log_is_applied_to_whole_lines_by_one_function():
    # ``_apply`` applies a log to plain lines: each Smith factor is one
    # pass of its log on the identity, and the Smith form's check applies
    # both logs.  ``_in_step`` applies one to lines kept with a cross
    # index, the only code that removes an entry from one: the Smith
    # reduction's two sides, and through ``_column_index`` the rows of
    # the rational elimination and of the integer search (the search also
    # their inverse, when it backtracks).  No module replays a log one
    # vector at a time
    assert _package_calls("_replay") == {}
    assert _package_calls("_apply") == {
        "exact_linalg.py": [
            "SnfDecomposition.u",
            "SnfDecomposition.u_inverse",
            "SnfDecomposition._v_columns",
            "smith_normal_form",
            "smith_normal_form",
            "smith_normal_form",
        ],
    }
    assert _package_calls("_in_step") == {"exact_linalg.py": ["_column_index", "_smith_reduce"]}
    removals = {
        path.name: sorted(set(_cross_index_removals(path.read_text(encoding="utf-8"))))
        for path in PACKAGE_MODULES
    }
    assert {module: where for module, where in removals.items() if where} == {
        "exact_linalg.py": ["_in_step.apply"],
    }


def test_both_trees_take_their_steps_and_cuts_from_one_routine_each():
    # the rational elimination, which the vector-space tree runs too, and
    # the integer search index their rows by the helper the Smith reduction
    # indexes its rows by, take each tree column to its pivot by the same
    # Euclid steps and read their cuts and cycles by one reader
    both = {"exact_linalg.py": ["_rref_tree"], "spanning_tree.py": ["find_spanning_tree_integer"]}
    for name in ("_unit_steps", "_read_tree"):
        assert _package_calls(name) == both, name
    indexed = {**both, "exact_linalg.py": ["_rref_tree", "_smith_reduce"]}
    assert _package_calls("_column_index") == indexed


def test_the_package_makes_a_smith_form_in_two_places():
    # B's form, which the hypergraph keeps and every report, tree check
    # and the integer search read, and that of a tree family without its
    # Kronecker pattern, which only a corrupt tree has
    assert _package_calls("smith_normal_form") == {
        "core.py": ["OrientedHypergraph._smith_form"],
        "spanning_tree.py": ["verify_tree_axioms.rank_and_index"],
    }


def test_the_package_builds_b_in_one_place():
    # the hypergraph keeps B: its Smith form factors it and the rational
    # tree, which the rational reports read, eliminates it; the integer
    # search walks B's Smith factor W instead
    assert _package_calls("boundary_matrix") == {"core.py": ["OrientedHypergraph._boundary"]}
    reads = {
        path.name: _scopes(
            path.read_text(encoding="utf-8"),
            lambda node: isinstance(node, ast.Attribute) and node.attr == "_boundary",
        )
        for path in PACKAGE_MODULES
    }
    assert {module: where for module, where in reads.items() if where} == {
        "core.py": ["OrientedHypergraph._smith_form"],
        "spanning_tree.py": ["find_spanning_tree_rational"],
    }


def test_the_package_reads_a_tree_off_an_rref_in_two_places():
    # the rational tree of B and the one elimination of the vector-space
    # tree, over the reversed generators; the integer search reads its tree
    # off its own row log
    assert _package_calls("_rref_tree") == {
        "spanning_tree.py": ["find_spanning_tree_rational", "vector_space_spanning_tree"],
    }


def test_both_reports_read_their_bases_in_one_place():
    # ``homology`` and ``cycle_cut_decomposition`` take their cycles and
    # cuts from ``_bases``, the one place the per-ring rule is written: the
    # rational tree is made there, and the columns of V are read there and
    # by the direct-summand witness
    source = (PACKAGE_MODULES[0].parent / "homology.py").read_text(encoding="utf-8")
    assert _calls(source, "find_spanning_tree_rational") == ["_bases"]
    reads = _scopes(
        source, lambda node: isinstance(node, ast.Attribute) and node.attr == "_v_columns"
    )
    assert reads == ["_bases", "graph_likeness"]


def test_homology_imports_nothing_from_boundary():
    # it may import ``boundary`` but never ``boundary_matrix``: its rational
    # bases are the rational tree's fundamental cycles and cuts, so it never
    # rebuilds B
    source = (PACKAGE_MODULES[0].parent / "homology.py").read_text(encoding="utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "boundary_matrix" not in imported


@pytest.mark.parametrize(
    "module, allowed",
    [("homology", set()), ("spanning_tree", {"_rref_tree", "smith_normal_form"})],
)
def test_reports_import_no_second_factorization(module, allowed):
    # a rank or a Smith form of B comes from the hypergraph's one form
    source = (PACKAGE_MODULES[0].parent / f"{module}.py").read_text(encoding="utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & {"image_rank", "_rref_tree", "smith_normal_form"} == allowed
