"""Package hygiene: the exported names and the imports of every module."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import rkhsreg
from rkhsreg.kernels import FAMILIES

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
    # linalg.py holds every factorization: the SpdFactor rungs and the
    # symmetric eigendecomposition. A LAPACK
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


def _blas_imports(tree: ast.Module) -> list[str]:
    """Lines that import scipy.linalg.blas or a name from it."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("scipy.linalg.blas")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg.blas"):
                names = [module]
            elif module == "scipy.linalg":
                names = [a.name for a in node.names if a.name == "blas"]
            else:
                names = []
        else:
            continue
        sites.extend(f"{node.lineno}: {name}" for name in names)
    return sites


def test_only_linalg_imports_blas():
    # A data Gram may hold only its upper triangle; linalg's symmetric
    # BLAS products are what read it. A BLAS call elsewhere is a second
    # place that must know which triangle holds the values.
    for snippet in (
        "from scipy.linalg.blas import dsymv",
        "import scipy.linalg.blas",
        "from scipy.linalg import blas",
        "import scipy.linalg.blas as blas",
    ):
        assert _blas_imports(ast.parse(snippet)), snippet
    for snippet in (
        "from scipy.linalg.lapack import dpotrs",
        "import scipy.linalg",
        "from scipy.linalg import cho_factor",
        "from .linalg import _symmetric_product",
    ):
        assert not _blas_imports(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "linalg.py"
        for site in _blas_imports(_parse(path))
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


def _subtract_outer_sites(tree: ast.Module) -> list[str]:
    """Lines that name subtract.outer, called or not."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "outer":
            owner = node.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if owner_name == "subtract":
                sites.append(f"{node.lineno}: subtract.outer")
    return sites


def test_no_broadcast_subtraction_forms_differences():
    # kernels._sq_dists forms every coordinate difference as one rank-2
    # BLAS product, bitwise equal to the subtraction and faster than
    # NumPy's broadcast subtract.outer. A subtract.outer anywhere in the
    # package is the slow form back beside the one place that forms
    # differences.
    for snippet in (
        "np.subtract.outer(a[:, 0], b[:, 0])",
        "numpy.subtract.outer(a, b)",
        "from numpy import subtract\nsubtract.outer(a, b)",
        "diff = np.subtract.outer",
    ):
        assert _subtract_outer_sites(ast.parse(snippet)), snippet
    for snippet in (
        "np.multiply.outer(u, v)",
        "np.subtract(a, b)",
        "a[:, None] - b[None, :]",
        "left @ right",
    ):
        assert not _subtract_outer_sites(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _subtract_outer_sites(_parse(path))
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
    # Every ridge or GP system K + shift*I is formed inside
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


def _spd_factor_callers(tree: ast.Module) -> list[str]:
    """The function around each SpdFactor(...) call, with the call's line.

    A method is named with its class, as Class.method.
    """
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node))
    sites = []
    for name, scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == "SpdFactor":
                    sites.append(f"{name}:{node.lineno}")
    return sites


def test_only_the_ridge_factor_builds_an_spd_factor():
    # The ridge fit, the residual bridge, the replication chunk's stacked
    # two-column solve and the GP band all factor K + shift*I through
    # estimator._ridge_factor, which takes a low-rank form only with a
    # positive shift, for a matrix and a stack alike; solve_spd and
    # sandwich factor general matrices. An SpdFactor built anywhere else
    # is a second copy of that rule.
    assert _spd_factor_callers(ast.parse("def f(K):\n    return linalg.SpdFactor(K)")) == ["f:2"]
    assert not _spd_factor_callers(ast.parse("def f(K):\n    return SpdFactor"))
    method = "class S:\n    def f(self, K):\n        return SpdFactor(K)"
    assert _spd_factor_callers(ast.parse(method)) == ["S.f:3"]
    allowed = {
        "estimator.py": ["_ridge_factor"],
        "linalg.py": ["sandwich", "solve_spd"],
    }
    callers = {
        path.name: sorted(site.split(":")[0] for site in _spd_factor_callers(_parse(path)))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert {name: sites for name, sites in callers.items() if sites} == allowed


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


def _environment_reads(tree: ast.Module) -> list[str]:
    """Lines that name os.environ or os.getenv, or import either from os."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [a.name for a in node.names if a.name in ("environ", "getenv")]
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            names = [f"os.{node.attr}"] if getattr(node.value, "id", "") == "os" else []
        else:
            continue
        sites.extend(f"{node.lineno}: {name}" for name in names)
    return sites


def test_no_environment_variable_steers_the_package():
    # A run is fixed by its config and seed. An environment variable read
    # inside the package is a second, unrecorded input: results.json
    # would not say which path a run took.
    for snippet in (
        "os.environ.get('RKHS_THREADS', '')",
        "os.environ['HOME']",
        "os.getenv('X', '1')",
        "'X' in os.environ",
        "from os import environ",
        "from os import getenv",
    ):
        assert _environment_reads(ast.parse(snippet)), snippet
    for snippet in (
        "os.path.join(a, b)",
        "os.makedirs(out_dir, exist_ok=True)",
        "env = {}\nenv.get('X')",
        "config.environ",
        "from os import path",
    ):
        assert not _environment_reads(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _environment_reads(_parse(path))
    ]
    assert sites == []


def _bandwidth_reads(tree: ast.Module) -> list[str]:
    """Lines that read a .bandwidth attribute or getattr(..., "bandwidth")."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "bandwidth":
            sites.append(f"{node.lineno}: .bandwidth")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr":
            if any(isinstance(a, ast.Constant) and a.value == "bandwidth" for a in node.args):
                sites.append(f"{node.lineno}: getattr bandwidth")
    return sites


def test_only_kernels_reads_the_bandwidth():
    # Each family's use of h, and with it the Gaussian's c = 1/2h^2 in
    # the Gauss transforms, sits in kernels.py beside _profile.
    # Elsewhere a KernelSpec is passed whole or rebuilt by keyword.
    for snippet in (
        "spec.bandwidth",
        "c = 0.5 / kernel.bandwidth**2",
        "h = self.kernel.bandwidth",
        "getattr(spec, 'bandwidth')",
    ):
        assert _bandwidth_reads(ast.parse(snippet)), snippet
    for snippet in (
        "KernelSpec('gaussian', bandwidth=0.25)",
        "replace(spec, dim=1)",
        "cfg['bandwidth']",
        "getattr(spec, 'family')",
    ):
        assert not _bandwidth_reads(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "kernels.py"
        for site in _bandwidth_reads(_parse(path))
    ]
    assert sites == []
    assert _bandwidth_reads(_parse(PACKAGE_DIR / "kernels.py"))


def _family_comparisons(tree: ast.Module) -> list[str]:
    """Comparisons of a value with a kernel family name, alone or in a literal collection."""
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            collection = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            literals = operand.elts if collection else [operand]
            if any(isinstance(x, ast.Constant) and x.value in FAMILIES for x in literals):
                sites.append(f"{node.lineno}: {ast.unparse(node)}")
                break
    return sites


def test_only_kernels_compares_with_a_kernel_family():
    # What a family computes, and which arithmetic kernel_apply picks for
    # it, is decided in kernels.py. Elsewhere a spec is built by family
    # name and its family tested against a named collection at most.
    for snippet in (
        "kernel.family == 'gaussian'",
        "spec.family != 'constant'",
        "'laplace' == k.family",
        "family in ('gaussian', 'constant')",
        "x if f not in ['rational_quadratic'] else y",
    ):
        assert _family_comparisons(ast.parse(snippet)), snippet
    for snippet in (
        "KernelSpec('gaussian', 0.25, 1)",
        "kernel.family in PRODUCT_FAMILIES",
        "kind == 'uniform'",
        "family = 'gaussian'",
    ):
        assert not _family_comparisons(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "kernels.py"
        for site in _family_comparisons(_parse(path))
    ]
    assert sites == []
    assert _family_comparisons(_parse(PACKAGE_DIR / "kernels.py"))


def _low_rank_rule_sites(tree: ast.Module) -> list[str]:
    """The scope (function, Class.method or <module>) of each comparison that reads LOW_RANK_MIN_RATIO."""
    sites = []

    def reads_ratio(node: ast.AST) -> bool:
        return any(
            getattr(x, "id", None) == "LOW_RANK_MIN_RATIO"
            or getattr(x, "attr", None) == "LOW_RANK_MIN_RATIO"
            for x in ast.walk(node)
        )

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Compare) and reads_ratio(child):
                sites.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return sites


def test_one_function_decides_the_woodbury_rung():
    # The rule n >= LOW_RANK_MIN_RATIO * r, which sends a ridge system to
    # the Woodbury rung on the grid's Nystrom factor, is decided in
    # GridOperator.nystrom_coefficients alone; the replication chunk and
    # the band figure both ask it. A second comparison is a second copy
    # of the rule to keep in step.
    for snippet, scope in (
        ("n >= LOW_RANK_MIN_RATIO * r", "<module>"),
        ("def f(n, r):\n    return n < fredholm.LOW_RANK_MIN_RATIO * r", "f"),
        ("class C:\n    def f(self, n):\n        return LOW_RANK_MIN_RATIO * self.rank <= n", "C.f"),
        ("def f(n, r):\n    if n // r >= LOW_RANK_MIN_RATIO:\n        return 1", "f"),
    ):
        assert _low_rank_rule_sites(ast.parse(snippet)) == [scope], snippet
    for snippet in (
        "ratio = LOW_RANK_MIN_RATIO",
        "n >= 10 * r",
        "def f(r):\n    return LOW_RANK_MIN_RATIO * r",
        "x = op.nystrom_coefficients(n) is None",
    ):
        assert _low_rank_rule_sites(ast.parse(snippet)) == [], snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _low_rank_rule_sites(_parse(path))
    ]
    assert sites == ["fredholm.py:GridOperator.nystrom_coefficients"]


def _call_sites(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """The scope (function, Class.method or <module>) of each call of a name in names, bare or as an attribute."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in names:
                    sites.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return sites


def _package_call_sites(names: tuple[str, ...]) -> list[str]:
    return [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in _call_sites(_parse(path), names)
    ]


GRAM_FREE_CHOICE = ("MatrixFreeOperator", "tables")


def test_one_function_decides_gram_backed_or_gram_free():
    # Whether a replication's data side builds a Gram is decided in
    # estimator._data_operator alone, from its inputs: it forms the
    # points' two Taylor tables for K V (TaylorTransform.tables) and
    # builds the MatrixFreeOperator. Another call of either is a second
    # route to the same case. The transform's constructor,
    # kernels.taylor_transform, is not pinned here: kernel_apply and the
    # design context ask it too, for products of their own.
    for snippet, scope in (
        ("op = MatrixFreeOperator((n, n), apply, trace)", "<module>"),
        ("def f(t, x):\n    return t.tables(x)", "f"),
        ("class C:\n    def f(self):\n        return linalg.MatrixFreeOperator(s, a, b)", "C.f"),
        ("def f(t, x):\n    if t.tables(x):\n        return 1", "f"),
    ):
        assert _call_sites(ast.parse(snippet), GRAM_FREE_CHOICE) == [scope], snippet
    for snippet in (
        "op = GramOperator(K)",
        "cls = MatrixFreeOperator",
        "def tables(self, x):\n    return x",
        "t = taylor_transform(spec, low, high, x)",
        "op = _data_operator(kernel, xs, True, assemble)",
    ):
        assert _call_sites(ast.parse(snippet), GRAM_FREE_CHOICE) == [], snippet
    assert _package_call_sites(GRAM_FREE_CHOICE) == ["estimator.py:_data_operator"] * 2


def test_only_the_gram_backed_operator_calls_the_symmetric_product():
    # _symmetric_product reads a Gram's upper triangle through BLAS. Its
    # one caller is GramOperator.product; every other product with a data
    # matrix goes through a data operator, so no code path assumes a Gram
    # exists where a Gram-free operator stands in for it.
    for snippet, scope in (
        ("KV = _symmetric_product(K, Vt)", "<module>"),
        ("def f(K, V):\n    return linalg._symmetric_product(K, V)", "f"),
        ("class C:\n    def product(self, Vt):\n        return _symmetric_product(self.K, Vt)",
         "C.product"),
    ):
        assert _call_sites(ast.parse(snippet), ("_symmetric_product",)) == [scope], snippet
    for snippet in (
        "from .linalg import _symmetric_product",
        "f = _symmetric_product",
        "KV = operator.product(Vt)",
        "def _symmetric_product(K, Vt):\n    return K @ Vt",
    ):
        assert _call_sites(ast.parse(snippet), ("_symmetric_product",)) == [], snippet
    assert _package_call_sites(("_symmetric_product",)) == ["linalg.py:GramOperator.product"]


def _kernels_or_linalg_imports(tree: ast.Module) -> list[str]:
    """Imported names, modules included, whose home is rkhsreg.kernels or rkhsreg.linalg."""
    homes = ("rkhsreg.kernels", "rkhsreg.linalg")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name in homes]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rkhsreg"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if inspect.ismodule(value):
                    home = value.__name__
                else:
                    home = getattr(value, "__module__", None) or node.module
                if home in homes:
                    found.append(f"{node.module}.{alias.name}")
    return found


def test_the_reference_replication_writes_its_kernel_and_solve_out():
    # tests/reference_replication.py checks run_replication's kernel
    # products and solves, so it takes none of them from the package:
    # from kernels and linalg it imports KernelSpec alone.
    for snippet in (
        "from rkhsreg.kernels import cross_gram",
        "from rkhsreg import solve_spd",
        "from rkhsreg.experiments import gram",
        "from rkhsreg import kernels",
        "import rkhsreg.linalg",
    ):
        assert _kernels_or_linalg_imports(ast.parse(snippet)), snippet
    for snippet in ("from rkhsreg.experiments import sample_dataset", "import numpy as np"):
        assert not _kernels_or_linalg_imports(ast.parse(snippet)), snippet
    tree = _parse(Path(__file__).with_name("reference_replication.py"))
    assert _kernels_or_linalg_imports(tree) == ["rkhsreg.kernels.KernelSpec"]


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


def _literal_head(parts: list[ast.expr], bound: dict[str, str]) -> str:
    """The text of a message's parts up to the first value not in bound (a loop name's text)."""
    head = ""
    for part in parts:
        if isinstance(part, ast.Constant):
            head += part.value
        elif isinstance(part, ast.FormattedValue) and getattr(part.value, "id", None) in bound:
            head += bound[part.value.id]
        else:
            break
    return head


def _row_heads(function: ast.FunctionDef) -> list[str]:
    """The head, first item, of each row of the check table `rows` built in function.

    A starred generator of rows gives one head per name it loops over,
    from a tuple of strings or the keys of a dict built in function.
    """
    assigned = {
        target.id: node.value
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    heads = []
    for row in assigned["rows"].elts:
        if not isinstance(row, ast.Starred):
            heads.append(row.elts[0].value)
            continue
        head = row.value.elt.elts[0]
        if isinstance(head, ast.Constant):
            heads.append(head.value)
            continue
        (loop,) = row.value.generators
        target = loop.target.elts[0] if isinstance(loop.target, ast.Tuple) else loop.target
        names = loop.iter.args[0] if isinstance(loop.iter, ast.Call) else loop.iter
        names = assigned.get(getattr(names, "id", None), names)
        values = names.keys if isinstance(names, ast.Dict) else names.elts
        heads += [_literal_head(head.values, {target.id: v.value}) for v in values]
    return heads


def _broken_invariant_heads(tree: ast.Module) -> list[str]:
    """The head of every message raised as an ArithmeticError: its text up to its first value.

    A message that starts with a value, f"{head} at n=...", is a check
    table's: its heads are each row head of the function's `rows`
    followed by the message's text up to its next value.
    """
    heads = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ArithmeticError"
            ):
                continue
            (message,) = node.exc.args
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            if isinstance(parts[0], ast.FormattedValue):
                name = parts[0].value.id
                heads += [_literal_head(parts, {name: row}) for row in _row_heads(function)]
            else:
                heads.append(_literal_head(parts, {}))
    return heads


def _fault_case_messages() -> list[str]:
    """The message each runtime-detector case of tests/test_faults.py asserts."""
    tree = _parse(Path(__file__).with_name("test_faults.py"))
    (test,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "test_runtime_detector_stops_the_run"
    ]
    (mark,) = [d for d in test.decorator_list if getattr(d.func, "attr", "") == "parametrize"]
    return [case.elts[1].value for case in mark.args[1].elts]


def _asserts(message: str, head: str) -> bool:
    """Whether a case's message and a head agree as far as the shorter goes."""
    return message.startswith(head) or head.startswith(message)


def test_every_broken_invariant_message_is_tripped_by_a_fault_case():
    # Exit 3 ("invariant broken") must name a check that a planted fault
    # can trip. Every ArithmeticError message head the package raises,
    # each row of _run_chunk's check table included, is asserted by a
    # case of tests/test_faults.py, and each case names exactly one head.
    table = """
def check(n, a, b):
    inputs = {"f": a, "K": b}
    rows = (
        *((f"non-finite {name}", "{0}", count) for name, count in zip(inputs, counts)),
        *(("form broken", "{0}", q) for q in forms),
        ("bridge broken", "{0}", x),
        *((f"{name} bound", "{0}", m) for name, m in zip(("ball", "sup"), margins)),
    )
    head, tail, *values = rows[0]
    raise ArithmeticError(f"{head} at n={n}: {tail}")
"""
    assert _broken_invariant_heads(ast.parse(table)) == [
        "non-finite f at n=", "non-finite K at n=", "form broken at n=", "bridge broken at n=",
        "ball bound at n=", "sup bound at n=",
    ]
    plain = 'def f(x):\n    raise ArithmeticError(f"gap {x:.3e} at lam={x!r}")\n'
    assert _broken_invariant_heads(ast.parse(plain)) == ["gap "]
    assert _broken_invariant_heads(ast.parse('def f():\n    raise ValueError("gap")\n')) == []

    heads = sorted({
        head
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for head in _broken_invariant_heads(_parse(path))
    })
    messages = _fault_case_messages()
    assert len(heads) >= 10 and len(messages) >= 10
    assert [m for m in messages if sum(_asserts(m, h) for h in heads) != 1] == []
    assert [h for h in heads if not any(_asserts(m, h) for m in messages)] == []
