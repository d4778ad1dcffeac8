"""Package hygiene: the exported names and the imports of every module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rkhsreg

PACKAGE_DIR = Path(rkhsreg.__file__).parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, mapped to its line."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_all_lists_exactly_the_imported_public_names():
    tree = _parse(PACKAGE_DIR / "__init__.py")
    imported = {name for name in _top_level_imports(tree) if not name.startswith("_")}
    exported = _exported(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert set(exported) == imported
    assert set(exported) == set(rkhsreg.__all__)


def test_no_module_keeps_an_unused_import():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported(tree))
        for name, line in _top_level_imports(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_every_private_helper_is_referenced():
    # A private top-level function or class that nothing names is dead code.
    trees = {path.name: _parse(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unreferenced == []


_EIGENSOLVERS = ("eigh", "eigvalsh")


def _factorization_sites(tree: ast.Module) -> list[str]:
    """Lines that import scipy.linalg.lapack, call cho_factor, or call or import
    eigh or eigvalsh of numpy.linalg or scipy.linalg."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("scipy.linalg.lapack")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg.lapack"):
                names = [module]
            elif module == "scipy.linalg":
                factorizers = ("lapack", "cho_factor") + _EIGENSOLVERS
                names = [a.name for a in node.names if a.name in factorizers]
            elif module == "numpy.linalg":
                names = [a.name for a in node.names if a.name in _EIGENSOLVERS]
            else:
                names = []
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            owner = func.value if isinstance(func, ast.Attribute) else None
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            eigensolver = called in _EIGENSOLVERS and owner_name == "linalg"
            names = [f"{called}()"] if called == "cho_factor" or eigensolver else []
        else:
            continue
        sites.extend(f"{node.lineno}: {name}" for name in names)
    return sites


def test_only_linalg_factors_matrices():
    # linalg.py holds every factorization: the SpdFactor rungs, the
    # pivoted Cholesky and the symmetric eigendecomposition. A LAPACK
    # import, a cho_factor call or an eigh or eigvalsh anywhere else is a
    # second place to keep in step.
    for snippet in (
        "from scipy.linalg.lapack import dpstrf",
        "import scipy.linalg.lapack",
        "from scipy.linalg import lapack",
        "scipy.linalg.cho_factor(A)",
        "scipy.linalg.eigh(A, driver='evd')",
        "np.linalg.eigvalsh(A)",
        "numpy.linalg.eigh(A)",
        "from scipy import linalg\nlinalg.eigvalsh(A)",
        "from scipy.linalg import eigh",
        "from numpy.linalg import eigvalsh",
    ):
        assert _factorization_sites(ast.parse(snippet)), snippet
    for snippet in (
        "sym_eig(S)",
        "from .linalg import sym_eig",
        "np.linalg.norm(A)",
        "scipy.linalg.cho_solve(c, b)",
        "factor.eigh(A)",
        "from numpy.linalg import norm",
    ):
        assert not _factorization_sites(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "linalg.py"
        for site in _factorization_sites(_parse(path))
    ]
    assert sites == []


_DENSE_SOLVERS = ("solve", "inv", "lstsq")


def _dense_solve_sites(tree: ast.Module) -> list[str]:
    """Lines that call or import solve, inv or lstsq of numpy.linalg or scipy.linalg."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
            names = [a.name for a in node.names if a.name in _DENSE_SOLVERS]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            solver = node.func.attr in _DENSE_SOLVERS and owner_name == "linalg"
            names = [f"linalg.{node.func.attr}()"] if solver else []
        else:
            continue
        sites.extend(f"{node.lineno}: {name}" for name in names)
    return sites


def test_only_linalg_solves_dense_systems():
    # Every linear system is solved through linalg.SpdFactor, which
    # checks each solution column against its matrix. A general solve,
    # inverse or least-squares call elsewhere bypasses that check.
    for snippet in (
        "np.linalg.solve(A, b)",
        "numpy.linalg.inv(A)",
        "scipy.linalg.solve(A, b, assume_a='sym')",
        "scipy.linalg.lstsq(A, b)",
        "from scipy import linalg\nlinalg.inv(A)",
        "from numpy.linalg import solve",
    ):
        assert _dense_solve_sites(ast.parse(snippet)), snippet
    for snippet in (
        "np.linalg.qr(A)",
        "scipy.linalg.eigh(A)",
        "scipy.linalg.cho_solve(c, b)",
        "factor.solve(B)",
        "from scipy.linalg import cho_solve",
    ):
        assert not _dense_solve_sites(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "linalg.py"
        for site in _dense_solve_sites(_parse(path))
    ]
    assert sites == []


def _discarded_cross_grams(tree: ast.Module) -> list[str]:
    """Lines that multiply a freshly built cross_gram(...) by something."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left = node.left
            if isinstance(left, ast.Call):
                func = left.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == "cross_gram":
                    sites.append(f"{node.lineno}: cross_gram(...) @")
    return sites


def test_no_cross_gram_is_built_for_one_product():
    # A cross-Gram built only to multiply it once is kernels.kernel_apply,
    # which never holds the whole matrix. Matrices that are kept and
    # reused (a cached one, the GP band's) are assigned first.
    assert _discarded_cross_grams(ast.parse("cross_gram(k, a, b) @ c"))
    assert _discarded_cross_grams(ast.parse("kernels.cross_gram(k, a, b) @ c"))
    assert not _discarded_cross_grams(ast.parse("C = cross_gram(k, a, b)\nC @ c"))
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _discarded_cross_grams(_parse(path))
    ]
    assert sites == []


def _diagonal_shifts(tree: ast.Module) -> list[str]:
    """Lines that write a matrix diagonal: X.flat[...] op= c, fill_diagonal or eye."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
                if target.value.attr == "flat":
                    sites.append(f"{node.lineno}: .flat[...] op=")
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("eye", "identity", "fill_diagonal"):
                sites.append(f"{node.lineno}: {called}()")
    return sites


def test_only_linalg_shifts_a_diagonal():
    # Every ridge or GP system lam*I + K/divisor is formed inside
    # linalg.SpdFactor, which checks each solve against it and may skip
    # forming it (the Woodbury rung). A diagonal shifted anywhere else is
    # a second copy of such a system.
    for snippet in (
        "A.flat[:: n + 1] += lam",
        "A + lam * np.eye(n)",
        "np.fill_diagonal(A, 1.0)",
    ):
        assert _diagonal_shifts(ast.parse(snippet)), snippet
    assert not _diagonal_shifts(ast.parse("x = A.flat[0]\nA += B"))
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "linalg.py"
        for site in _diagonal_shifts(_parse(path))
    ]
    assert sites == []


def _scipy_imports_beyond_linalg(tree: ast.Module) -> list[str]:
    """Lines that import a scipy subpackage other than scipy.linalg outside a function."""
    sites = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                modules = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module == "scipy":
                modules = [f"scipy.{a.name}" for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            sites.extend(
                f"{child.lineno}: {module}"
                for module in modules
                if module.startswith("scipy.")
                and module != "scipy.linalg"
                and not module.startswith("scipy.linalg.")
            )
            visit(child)

    visit(tree)
    return sites


def test_only_scipy_linalg_is_imported_at_module_level():
    # A module-level import runs on every `import rkhsreg`. scipy.stats
    # alone took 0.6-0.7 s of a 1.1 s cold start for the one design kind
    # that uses it, so any other scipy subpackage is imported inside the
    # function that needs it.
    for snippet in (
        "import scipy.stats",
        "from scipy import stats",
        "from scipy.stats import truncnorm",
        "import scipy.special as sc",
        "if True:\n    import scipy.stats",
    ):
        assert _scipy_imports_beyond_linalg(ast.parse(snippet)), snippet
    for snippet in (
        "import scipy.linalg",
        "from scipy import linalg",
        "from scipy.linalg.lapack import dpstrf",
        "def f():\n    import scipy.stats",
    ):
        assert not _scipy_imports_beyond_linalg(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _scipy_imports_beyond_linalg(_parse(path))
    ]
    assert sites == []


_FRESH_RUNS = """
import json, sys
import rkhsreg.cli
runs = [[rkhsreg.cli.cmd_run(config), "scipy.stats" in sys.modules] for config in sys.argv[1:]]
print(json.dumps({"file": rkhsreg.__file__, "runs": runs}))
"""


def test_scipy_stats_loads_only_for_a_truncated_gaussian_design(tmp_path):
    # This process has scipy.stats loaded already, so a fresh interpreter
    # on this checkout's src runs a uniform design and then a truncated
    # Gaussian one, and reports after each whether scipy.stats is loaded.
    src = Path(__file__).resolve().parent.parent / "src"
    designs = {
        "uniform": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "truncated_gaussian": {
            "kind": "truncated_gaussian", "low": 0.0, "high": 1.0, "center": 0.5, "scale": 0.3
        },
    }
    configs = []
    for name, design in designs.items():
        cfg = {
            "scenario": {
                "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
                "design": design,
                "grid_m": 64,
            },
            "ns": [10, 12],
            "lambda_rule": {"kind": "fixed", "value": 0.2},
            "R": 2,
            "outputs": str(tmp_path / name),
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        configs.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUNS, *configs],
        # One BLAS thread: starting the OpenBLAS pool took 0.4 of 1.9 s on 2 cores.
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert src in Path(report["file"]).resolve().parents
    assert report["runs"] == [[0, False], [0, True]]
