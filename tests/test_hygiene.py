"""Static checks on the package source, with the standard library only:
no module imports a name it never uses, every name listed in a module's
``__all__`` exists, every function reads each of its parameters, ranks are
cut and singular matrices gated in ``numkit`` only, every threshold reads
the one ``numkit.DEFAULT_TOL``, and the package imports
exactly the dependencies ``pyproject.toml`` declares."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conjlim"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement, mapped to its line;
    ``__future__`` imports bind nothing the code uses."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def used_names(tree: ast.Module) -> set:
    """Names read anywhere, including inside quoted annotations, plus the
    names the module re-exports through ``__all__``."""
    used = set(exported_names(tree))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    name = "conjlim" if path.name == "__init__.py" else f"conjlim.{path.stem}"
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def suite_runners(tree: ast.Module) -> set:
    """Functions registered in ``suites._SUITES``, which all take the
    ``(seed, config)`` pair whether or not they read the seed."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SUITES" for t in node.targets
        ):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def unused_parameters(tree: ast.Module, exempt: set) -> list:
    """``function.parameter`` for every parameter its function never reads."""
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p is not None and p.arg not in read and (name, p.arg) not in exempt:
                unused.append(f"{name}.{p.arg} (line {node.lineno})")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {(name, "seed") for name in suite_runners(tree)}
    unused = unused_parameters(tree, exempt)
    assert not unused, f"{path.name} has parameters no code reads: {', '.join(unused)}"


def two_norm_calls(tree: ast.Module) -> list:
    """Lines of ``<...>linalg.norm(x, 2)`` calls, with the order given by
    position or as ``ord=``."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"
            and ast.unparse(node.func.value).endswith("linalg")
        ):
            continue
        orders = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if any(isinstance(o, ast.Constant) and o.value == 2 for o in orders):
            lines.append(node.lineno)
    return lines


def test_operator_norm_is_the_only_2_norm():
    # numkit.operator_norm is the one home of the operator 2-norm, so its
    # validation and its cost are the same for every caller
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numkit.py"
        for line in two_norm_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"use numkit.operator_norm in place of np.linalg.norm(., 2): {found}"


def det_call_lines(tree: ast.Module, skip: str | None = None) -> list:
    """Lines of ``<...>linalg.det(...)`` calls outside the function ``skip``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            allowed.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "det"
        and ast.unparse(node.func.value).endswith("linalg")
        and id(node) not in allowed
    ]


def test_det_is_taken_once():
    # the SVD adjugate gives every determinant the exact path test needs, so
    # its unit phase is the only one an LU is taken for
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in det_call_lines(
            ast.parse(path.read_text(encoding="utf-8")),
            "_batched_adjugate" if path.name == "pathsim.py" else None,
        )
    ]
    assert not found, f"take determinants in pathsim._batched_adjugate only: {found}"


def rank_cut_lines(tree: ast.Module) -> list:
    """Lines that read ``<...>.rank_rel`` or import ``_svd_rank``: the
    ingredients of a rank decision of a module's own."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "rank_rel":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_svd_rank" for a in node.names):
            lines.append(node.lineno)
    return lines


def test_rank_is_cut_in_numkit_only():
    # numkit.svd_rank is the one rank decision; every kernel, image and
    # rank is read off its SVD, so no two modules can cut Z differently
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numkit.py"
        for line in rank_cut_lines(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"cut ranks with numkit.svd_rank: {found}"


def singular_rel_lines(tree: ast.Module) -> list:
    """Lines that read or import ``SINGULAR_REL``, the singularity gate's
    threshold."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "SINGULAR_REL":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "SINGULAR_REL":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            a.name == "SINGULAR_REL" for a in node.names
        ):
            lines.append(node.lineno)
    return lines


def test_singular_rel_read_in_numkit_only():
    # numkit.singular and numkit.gated_inverse are the one singularity gate;
    # the LU certificate and the SVD gate share its threshold there only
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numkit.py"
        for line in singular_rel_lines(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"gate singular matrices with numkit.singular or gated_inverse: {found}"


def tolerance_sites(tree: ast.Module, home: bool) -> list:
    """Lines that declare a parameter or class field named ``tol``, or call
    ``Tolerance(...)``; in the policy's ``home`` module the call that builds
    ``DEFAULT_TOL`` is allowed."""
    allowed = set()
    for node in tree.body:
        if home and isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DEFAULT_TOL" for t in node.targets
        ):
            allowed.update(id(n) for n in ast.walk(node.value))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            lines += [node.lineno for p in params if p is not None and p.arg == "tol"]
        elif isinstance(node, ast.ClassDef):
            lines += [
                item.lineno
                for item in node.body
                if isinstance(item, ast.AnnAssign) and ast.unparse(item.target) == "tol"
            ]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "Tolerance"
            and id(node) not in allowed
        ):
            lines.append(node.lineno)
    return lines


def test_one_numerical_policy():
    # every rank cut and residual threshold reads numkit.DEFAULT_TOL, so a
    # change of policy is a change to that one record, not to each caller
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in tolerance_sites(
            ast.parse(path.read_text(encoding="utf-8")), path.name == "numkit.py"
        )
    ]
    assert not found, f"read numkit.DEFAULT_TOL instead of taking a tolerance: {found}"


def imported_packages(tree: ast.Module) -> set:
    """Top-level package of every absolute import, wherever it sits."""
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = set().union(
        *(imported_packages(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES)
    )
    undeclared = imported - declared - set(sys.stdlib_module_names) - {"conjlim"}
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {sorted(undeclared)}"
    unused = declared - imported
    assert not unused, f"declared in pyproject.toml but never imported: {sorted(unused)}"
