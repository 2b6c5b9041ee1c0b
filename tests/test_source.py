from __future__ import annotations

import ast
import importlib
from pathlib import Path

import rcaudit

PACKAGE = Path(rcaudit.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library control flow must
    # not depend on them
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracles_import_nothing_from_the_search():
    # the reference implementations must not share code with the exact
    # search or the rainbow checks they validate
    oracles = Path(__file__).with_name("oracles.py")
    banned = {"rcaudit.exact", "rcaudit.rainbow"}
    found = []
    for node in ast.walk(ast.parse(oracles.read_text(), filename=str(oracles))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in banned]
        elif isinstance(node, ast.ImportFrom):
            if node.module in banned:
                found.append(node.module)
            elif node.module == "rcaudit":
                # a name re-exported by the package, or a submodule
                for a in node.names:
                    obj = getattr(rcaudit, a.name)
                    if getattr(obj, "__module__", getattr(obj, "__name__", "")) in banned:
                        found.append(a.name)
    assert found == []


def test_bit_rows_are_read_only_in_graphs_and_decompose():
    # the adjacency representation stays private to graphs.py; the one
    # reader outside it is the construction's root read (construct._whole),
    # which hands the root graph's rows to the levels and to decompose,
    # both of which run on vertex masks over those rows
    found = []
    root_reads = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed: set[int] = set()
        if path.name == "construct.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_whole":
                    allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_rows":
                if id(node) in allowed:
                    root_reads += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert root_reads == 1


def test_set_bits_are_iterated_only_by_the_kernel():
    # every loop over the set bits of a mask goes through
    # graphs._bit_positions: a while loop on x whose body assigns x & -x
    # anywhere else hand-rolls that kernel. Taking x & -x once, as the
    # flood seeds do, is no loop over the bits
    found = []
    kernels = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernel: set[int] = set()
        if path.name == "graphs.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_bit_positions":
                    kernel = {id(sub) for sub in ast.walk(node)}
        for loop in ast.walk(tree):
            if not (isinstance(loop, ast.While) and isinstance(loop.test, ast.Name)):
                continue
            x = loop.test.id
            lowest = (f"{x} & -{x}", f"-{x} & {x}")
            if any(
                isinstance(node, ast.Assign) and ast.unparse(node.value) in lowest
                for stmt in loop.body
                for node in ast.walk(stmt)
            ):
                if id(loop) in kernel:
                    kernels += 1
                else:
                    found.append(f"{path.name}:{loop.lineno}")
    assert found == []
    assert kernels == 1


def test_library_reads_no_edge_sets():
    # the bit rows are the one stored adjacency; Graph.edges derives a
    # frozenset from them for outside callers, and the library reads
    # edge_list() or has_edge instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]
    assert found == []


def test_public_names_are_used():
    # the package exports only what the CLI, the scripts and the tests
    # read; a name nothing reads any more belongs out of the public API
    root = Path(__file__).resolve().parents[1]
    init = PACKAGE / "__init__.py"
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    readers = [PACKAGE / "cli.py", *sorted((root / "scripts").glob("*.py"))]
    readers += sorted((root / "tests").glob("*.py"))
    read: set[str] = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(exported) - read) == []


def test_every_listed_name_is_defined():
    # a name left in a module's __all__ after its definition is deleted
    # would break "from rcaudit.<module> import *" only at run time
    stale = []
    # __main__ runs the CLI on import, and __init__ lists no __all__
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"rcaudit.{path.stem}")
        stale += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert stale == []


def test_only_the_cli_writes_json():
    # the JSON form (sorted keys, Fractions as 'p/q' strings) is known in
    # one place, cli._dumps; the library hands over its records as they are
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
