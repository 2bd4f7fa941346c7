"""Static checks on the package source, with the standard library only:
no module imports a name it never uses, every name listed in a module's
``__all__`` exists, every function reads each of its parameters, ranks are
cut, singular matrices gated and matrices inverted in ``numkit`` only,
determinants taken in ``pathsim._batched_adjugate`` only, no least-squares
solve anywhere, no function takes a tolerance of its own in place of the
``numkit`` policy constants, no function takes a ``dual`` flag, and the
package imports exactly the dependencies ``pyproject.toml`` declares."""

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


def linalg_call_lines(tree: ast.Module, attr: str, skip: str | None = None) -> list:
    """Lines of ``<...>linalg.<attr>(...)`` calls outside the function ``skip``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            allowed.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and ast.unparse(node.func.value).endswith("linalg")
        and id(node) not in allowed
    ]


def test_det_is_taken_once():
    # _batched_adjugate gives every determinant the exact path test needs:
    # one batched det of its samples, and the unit phase of Stewart's SVD
    # adjugate at the samples its LU certificate does not clear
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in linalg_call_lines(
            ast.parse(path.read_text(encoding="utf-8")),
            "det",
            "_batched_adjugate" if path.name == "pathsim.py" else None,
        )
    ]
    assert not found, f"take determinants in pathsim._batched_adjugate only: {found}"


def test_one_lu_inverse():
    # numkit.lu_inverse is the one inverse, so every caller gets its
    # per-matrix fallback and its residual certificate; solve has no home
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = "lu_inverse" if path.name == "numkit.py" else None
        lines = linalg_call_lines(tree, "inv", skip) + linalg_call_lines(tree, "solve")
        found += [f"{path.name}:{line}" for line in lines]
    assert not found, f"invert with numkit.lu_inverse only: {found}"


def test_no_least_squares():
    # the Laurent inverse is a forward substitution on one SVD of Z and one
    # k x k block, so no least-squares solve is left in the package
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in linalg_call_lines(ast.parse(path.read_text(encoding="utf-8")), "lstsq")
    ]
    assert not found, f"no np.linalg.lstsq in the package: {found}"


def constant_lines(tree: ast.Module, name: str) -> list:
    """Lines that read the module constant ``name``, bare or as an
    attribute, or import it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            lines.append(node.lineno)
    return lines


def rank_cut_lines(tree: ast.Module) -> list:
    """Lines that read or import ``RANK_REL`` or import ``_svd_rank``: the
    ingredients of a rank decision of a module's own."""
    lines = constant_lines(tree, "RANK_REL")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "_svd_rank" for a in node.names):
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


@pytest.mark.parametrize(
    "stray",
    ["from .numkit import RANK_REL", "cut = numkit.RANK_REL * s[0]", "RANK_REL = 1e-10"],
    ids=["import", "attribute", "name"],
)
def test_rank_cut_check_catches_a_stray_rank_rel(stray):
    # the check above is only as sharp as this: a RANK_REL planted in
    # criteria.py, imported, read off numkit or bound, is flagged on its line
    source = (PACKAGE / "criteria.py").read_text(encoding="utf-8")
    planted = f"{source}\n{stray}\n"
    assert rank_cut_lines(ast.parse(source)) == []
    assert rank_cut_lines(ast.parse(planted)) == [planted.count("\n")]


def test_singular_rel_read_in_numkit_only():
    # numkit.singular and numkit.gated_inverse are the one singularity gate;
    # the LU certificate and the SVD gate share its threshold there only
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numkit.py"
        for line in constant_lines(ast.parse(path.read_text(encoding="utf-8")), "SINGULAR_REL")
    ]
    assert not found, f"gate singular matrices with numkit.singular or gated_inverse: {found}"


def tolerance_sites(tree: ast.Module) -> list:
    """Lines that declare a parameter or class field named ``tol``."""
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
    return lines


def test_one_numerical_policy():
    # every rank cut reads numkit.RANK_REL and every residual threshold is
    # numkit.residual_scale, so a change of policy is a change to those
    # constants, not to each caller
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in tolerance_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"read the numkit policy constants instead of taking a tolerance: {found}"


def test_no_dual_flag():
    # each dual test is its primal on adjoints, not a fork of it behind a flag
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "dual" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert not found, f"functions take a dual flag: {found}"


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
