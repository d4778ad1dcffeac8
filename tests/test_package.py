"""Package hygiene: the exported names and the imports of every module."""

import ast
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


def _factorization_sites(tree: ast.Module) -> list[str]:
    """Lines that import scipy.linalg.lapack or call cho_factor."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("scipy.linalg.lapack")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg.lapack"):
                names = [module]
            elif module == "scipy.linalg":
                names = [a.name for a in node.names if a.name in ("lapack", "cho_factor")]
            else:
                names = []
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            names = [f"{called}()"] if called == "cho_factor" else []
        else:
            continue
        sites.extend(f"{node.lineno}: {name}" for name in names)
    return sites


def test_only_linalg_factors_matrices():
    # linalg.py holds every factorization: the SpdFactor ladder and the
    # pivoted Cholesky. A LAPACK import or a cho_factor call anywhere
    # else is a second place to keep in step.
    for snippet in (
        "from scipy.linalg.lapack import dpstrf",
        "import scipy.linalg.lapack",
        "from scipy.linalg import lapack",
        "scipy.linalg.cho_factor(A)",
    ):
        assert _factorization_sites(ast.parse(snippet)), snippet
    sites = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "linalg.py"
        for site in _factorization_sites(_parse(path))
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
