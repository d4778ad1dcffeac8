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
