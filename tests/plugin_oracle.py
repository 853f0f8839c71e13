"""The plug-in sandwich sums one observation at a time: the oracle that
infer.plugin_interval's sums and the kernel's recorded responses are checked
against."""

import numpy as np

from streamci.model import DataPoint, loss_grad, loss_hessian


def plugin_sums(kind, thetas, X, y):
    """(J_sum, V_sum) over the observations X, y, each at its pre-update
    iterate in thetas, added in stream order: J_sum of the per-observation
    Hessians, V_sum of the outer products of the per-observation gradients."""
    d = X.shape[1]
    J_sum, V_sum = np.zeros((d, d)), np.zeros((d, d))
    for theta, x, yi in zip(thetas, X, y):
        p = DataPoint(x, float(yi))
        g = loss_grad(kind, theta, p)
        J_sum += loss_hessian(kind, theta, p)
        V_sum += np.outer(g, g)
    return J_sum, V_sum
