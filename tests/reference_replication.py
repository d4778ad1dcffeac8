"""One replication's metrics written out plainly, to check run_replication against.

Kernel values come from each family's formula, the ridge fit from
np.linalg.solve, and every squared RKHS distance from one quadratic
form in the coefficients on the data and the grid nodes. Of
rkhsreg.kernels only KernelSpec is used, and nothing of rkhsreg.linalg.
"""

import numpy as np

from rkhsreg.experiments import ReplicationMetrics, continuous_solution, sample_dataset
from rkhsreg.kernels import KernelSpec

FORMULAS = {
    "gaussian": lambda sq, h: np.exp(-sq / (2 * h * h)),
    "laplace": lambda sq, h: np.exp(-np.sqrt(sq) / h),
    "rational_quadratic": lambda sq, h: 1 / (1 + sq / (2 * h * h)),
    "constant": lambda sq, h: np.ones_like(sq),
}


def kernel(spec: KernelSpec, x, y):
    return FORMULAS[spec.family](((x[:, None, :] - y[None, :, :]) ** 2).sum(-1), spec.bandwidth)


def reference_replication(scenario, n: int, lam: float, index: int) -> ReplicationMetrics:
    data, sol = sample_dataset(scenario, n, index, lambda_key=lam), continuous_solution(scenario, lam)
    nodes, weights = sol.grid.nodes, sol.grid.weights
    centers = np.vstack([data.xs, nodes])
    G = kernel(scenario.kernel, centers, centers)
    K = G[:n, :n]
    a = np.linalg.solve(K + n * lam * np.eye(n), data.fs)
    flam = np.concatenate([np.zeros(n), weights * sol.w_values])
    f0 = np.concatenate([np.zeros(n), weights * scenario.w0_at(nodes)])
    hat = np.concatenate([a, np.zeros(len(nodes))])
    tilde = np.concatenate([(data.fs - G[:n] @ flam) / (lam * n), np.zeros(len(nodes))])
    dist = lambda u, v: float((u - v) @ G @ (u - v))
    gap = kernel(scenario.kernel, scenario.design.eval_grid, centers) @ (hat - flam)
    return ReplicationMetrics(
        n, lam, dist(hat, flam), dist(tilde, flam), dist(hat, tilde), dist(hat, f0),
        float(np.mean((data.fs - K @ a) ** 2) + lam * a @ K @ a),
        dist(hat, flam) ** 0.5, float(np.max(np.abs(gap))),
    )
