"""The package ships only what its commands and the benchmark call.

Reference code that only tests call lives in ``tests/oracles.py``: every
public top-level function and class of ``covspec``, and every public method
and property of its public classes, must be used by another part of the
package or by the benchmark.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import covspec

SRC = Path(covspec.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
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
                       "kernels": {"_node_count"}, "law": {"_upper_root"}}


def test_no_function_takes_the_law_apart():
    # (c, H) fix the limit law, so a routine takes the one checked LimitLaw
    # rather than both parts; a function with an H and a c parameter fails here
    split = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if {"H", "c"} <= names:
                    split.append(f"{path.name}:{node.lineno}")
    assert not split, f"take a LimitLaw, not (H, c): {split}"


def test_no_boolean_flags():
    # a True/False default is an option that forks a routine in two; the one
    # kept is eig_decompose(check=), which the benchmark's replay turns off to
    # time eigh apart from its self-checks
    flags = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                for arg, default in zip(positional + args.kwonlyargs, defaults + args.kw_defaults):
                    if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                        flags.append(f"{getattr(node, 'name', 'lambda')}({arg.arg}=)")
    assert flags == ["eig_decompose(check=)"], f"boolean options: {flags}"


def test_each_command_reads_exactly_its_flags():
    # a command's flags are the keys of its COMMANDS entry, so each _cmd_*
    # must read exactly those RunConfig fields beyond the model and out: a
    # flag no command reads, or a key read without its flag, fails here
    from covspec.cli import COMMANDS

    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")}
    assert sorted(funcs) == sorted(f"_cmd_{name}" for name in COMMANDS)
    for name, (run, keys) in COMMANDS.items():
        func = funcs[f"_cmd_{name}"]
        assert run.__name__ == func.name
        rc = func.args.args[0].arg
        attrs = [sub for sub in ast.walk(func)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                 and sub.value.id == rc]
        # rc itself never leaves the function, so its fields are read only here
        uses = [sub for sub in ast.walk(func) if isinstance(sub, ast.Name) and sub.id == rc]
        assert len(uses) == len(attrs), f"{func.name} passes {rc} on whole"
        read = {sub.attr for sub in attrs} - {"command", "model", "out"}
        assert read == set(keys), f"{func.name} reads {sorted(read)}, its flags are {keys}"


def test_readme_quick_start_runs():
    # the README's library example, as written, in a fresh interpreter
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["covspec"] + [
    f"covspec.{m.name}" for m in pkgutil.iter_modules(covspec.__path__)])
def test_moved_oracles_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(mod, name)] == []
