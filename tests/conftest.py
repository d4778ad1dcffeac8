import hypothesis
import numpy as np
import pytest
import scipy.linalg

# Derandomized so the suite is bit-for-bit reproducible across runs and
# machines; deadline off because BLAS warm-up skews first-call timings.
hypothesis.settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=60
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def cho_factor_calls(monkeypatch):
    """Counts Cholesky factorizations: the shapes passed to scipy.linalg.cho_factor."""
    calls = []
    orig = scipy.linalg.cho_factor

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return calls


@pytest.fixture
def kernel_paths(monkeypatch):
    """The arithmetic of each kernels.kernel_apply product, in call order.

    Each entry is "axis" (the factored axis transform), "taylor" (the
    Taylor transform) or "assembly" (row-blocked assembly). A transform
    that falls back to the assembly counts as assembly. A product from
    tables a caller holds (TaylorTransform.apply outside kernel_apply)
    counts as "taylor" too.
    """
    import rkhsreg.kernels as kernels

    paths = []
    depth = [0]

    def spy(path, fn):
        def recorded(*args):
            if depth[0]:
                paths[-1] = path
            else:
                paths.append(path)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return recorded

    for path, name in [
        ("axis", "_gaussian_axis_apply"),
        ("taylor", "_gaussian_taylor_apply"),
        ("assembly", "_assembled_apply"),
    ]:
        monkeypatch.setattr(kernels, name, spy(path, getattr(kernels, name)))
    transform = kernels.TaylorTransform
    monkeypatch.setattr(transform, "apply", spy("taylor", transform.apply))
    return paths
