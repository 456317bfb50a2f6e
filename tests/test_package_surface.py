"""The package ships only what its commands and the benchmark call.

Reference code that only tests call lives in ``tests/oracles.py``: every
public top-level function and class of ``covspec``, and every public method
and property of its public classes, must be used by another part of the
package or by the benchmark.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import covspec

SRC = Path(covspec.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
MOVED_TO_TESTS = ("cov_kernel", "_mbar_pair", "ProofKernels", "proof_kernels",
                  "homogeneity_residual", "inverse_z", "closed_form_mp", "resolvent_quad_form",
                  "eval_cdf", "companion_sample_cov")


def _referenced(node):
    """Every name that node refers to as a Name, an Attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _public_defs_and_uses():
    """(module, name) of each public top-level definition in the package and
    (module, class.member) of each public method or property of a public
    class, and the names used outside their own definition in the package
    (not counting ``__init__.py``) or in the benchmark."""
    defs, members, used = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.update(_referenced(node))
                continue
            public = not node.name.startswith("_")
            if public:
                defs.append((path.stem, node.name))
            # a class's parts one by one, so that a member's own body does not count
            parts = list(ast.iter_child_nodes(node)) if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                own = {node.name}
                if isinstance(part, ast.FunctionDef) and part is not node:
                    own.add(part.name)
                    if public and not part.name.startswith("_"):
                        members.append((path.stem, f"{node.name}.{part.name}"))
                used.update(name for name in _referenced(part) if name not in own)
    for path in sorted(BENCHMARKS.glob("*.py")):
        used.update(_referenced(ast.parse(path.read_text())))
    return defs, members, used


def test_every_public_definition_has_a_caller():
    defs, _, used = _public_defs_and_uses()
    assert len(defs) > 50
    unused = [f"{module}.{name}" for module, name in defs if name not in used]
    assert not unused, f"only tests call {unused}: move them to tests/oracles.py"


def test_every_public_member_has_a_caller():
    _, members, used = _public_defs_and_uses()
    assert len(members) > 15
    unused = [f"{module}.{name}" for module, name in members if name.split(".")[1] not in used]
    assert not unused, f"only tests call {unused}: move them to tests/oracles.py"


def test_every_import_is_used():
    # a deletion that leaves its import behind fails here; ``__init__.py``
    # imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        # an attribute chain a.b.c has the Name a at its root
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_private_names_imported_across_modules():
    # a module that reaches into a sibling's private name fails here, and so
    # does a removal that this record does not follow
    reached = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    reached.setdefault(path.stem, set()).update(names)
    assert reached == {"cli": {"_BLAS", "_env_workers"}, "harness": {"_is_int"},
                       "kernels": {"_node_count"}, "law": {"_node_count", "_upper_root"}}


@pytest.mark.parametrize("module", ["covspec"] + [
    f"covspec.{m.name}" for m in pkgutil.iter_modules(covspec.__path__)])
def test_moved_oracles_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(mod, name)] == []
