"""Independent reference implementations used only to check the library.

Everything here is deliberately naive (loops, plain gradient descent,
brute-force pair counting) and shares no code path with the implementations
under test.
"""

import numpy as np
from scipy.special import expit


def naive_objective(alpha, gram, labels, weights, lam, sigma, cpos, cneg):
    """Term-by-term evaluation of the penalized weighted risk."""
    n = len(labels)
    d = len(gram)
    total = 0.0
    norm = np.log1p(np.exp(1.0 / sigma))
    for i in range(n):
        f_i = 0.0
        for j in range(d):
            for k in range(n):
                f_i += alpha[j][k] * gram[j][k, i]
        u = labels[i] * f_i
        c = cpos if labels[i] > 0 else cneg
        total += c * np.log1p(np.exp((1.0 - u) / sigma)) / norm
    total /= n
    for j in range(d):
        total += lam * weights[j] * np.sqrt(np.sum(np.asarray(alpha[j]) ** 2))
    return total


def gd_smooth_risk(gram, labels, sigma, cpos, cneg, tol=1e-10,
                   max_iters=2000000):
    """Plain gradient descent on the unpenalized weighted risk (lam = 0).

    Fixed step 1 / (global Lipschitz bound); runs until the objective change
    drops below tol. Returns (alpha flat (d*n,), objective).
    """
    labels = np.asarray(labels, dtype=float)
    n = labels.size
    d = len(gram)
    norm = np.log1p(np.exp(1.0 / sigma))
    c = np.where(labels > 0, cpos, cneg)

    def margins(a):
        f = np.zeros(n)
        for j in range(d):
            f += gram[j] @ a[j * n:(j + 1) * n]
        return labels * f

    def risk_val(a):
        m = margins(a)
        return float(np.mean(c * np.logaddexp(0.0, (1.0 - m) / sigma)) / norm)

    def grad(a):
        m = margins(a)
        s = 1.0 / (1.0 + np.exp(-(1.0 - m) / sigma))
        common = -c * s * labels / (sigma * norm * n)
        return np.concatenate([gram[j] @ common for j in range(d)])

    # Lipschitz: curvature bound times the sum of per-block squared spectral
    # norms, which upper-bounds the stacked quadratic form.
    L = (np.max(c) / (4 * sigma ** 2 * norm)) * \
        sum(np.linalg.norm(g, 2) ** 2 for g in gram) / n
    step = 1.0 / L
    a = np.zeros(d * n)
    prev = risk_val(a)
    for _ in range(max_iters):
        a = a - step * grad(a)
        cur = risk_val(a)
        if prev - cur < tol:
            break
        prev = cur
    return a, risk_val(a)


def brute_force_auroc(scores, labels):
    """Pairwise P(pos > neg) + half ties, by explicit double loop."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = scores[labels > 0]
    neg = scores[labels < 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def naive_pearson(a, b):
    """Two-pass covariance Pearson matrix, explicit loops."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    out = np.empty((a.shape[1], b.shape[1]))
    for j in range(a.shape[1]):
        for k in range(b.shape[1]):
            x = a[:, j]
            y = b[:, k]
            mx, my = x.mean(), y.mean()
            cov = np.sum((x - mx) * (y - my)) / n
            sx = np.sqrt(np.sum((x - mx) ** 2) / n)
            sy = np.sqrt(np.sum((y - my) ** 2) / n)
            out[j, k] = cov / (sx * sy)
    return out


def t_sf_high_precision(t_val, df):
    """Student-t upper tail via mpmath's regularized incomplete beta."""
    import mpmath
    mpmath.mp.dps = 50
    t_val = mpmath.mpf(t_val)
    df = mpmath.mpf(df)
    x = df / (df + t_val ** 2)
    return float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x,
                                regularized=True) / 2)


def ridge_logistic_gd(X, y, lam, tol=1e-12, max_iters=500000):
    """Gradient descent for L2-penalized logistic regression with intercept.

    Objective: (1/n) sum log(1 + exp(-y (b + X beta))) + lam/2 ||beta||^2.
    Returns (beta, intercept).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    L = np.linalg.norm(X, 2) ** 2 / (4 * n) + lam + 0.25
    theta = np.zeros(p + 1)       # [intercept, beta]

    def grad(th):
        m = y * (th[0] + X @ th[1:])
        s = 1.0 / (1.0 + np.exp(m))
        g0 = np.mean(-y * s)
        gb = (X * (-y * s)[:, None]).mean(axis=0) + lam * th[1:]
        return np.concatenate([[g0], gb])

    for _ in range(max_iters):
        g = grad(theta)
        theta = theta - g / L
        if np.linalg.norm(g) < tol:
            break
    return theta[1:], theta[0]


def spectral_norm_sq_two_products(K, tol=1e-8, max_iters=500):
    """Power iteration for the top eigenvalue of K^T K, two products a step.

    Each step forms K^T K v for the next iterate and again for the estimate;
    kept as the reference for the one-product loop in the solver.
    """
    n = K.shape[0]
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    for _ in range(max_iters):
        w = K.T @ (K @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        new_est = float(v_new @ (K.T @ (K @ v_new)))
        if abs(new_est - est) <= tol * max(1.0, abs(new_est)):
            return new_est
        est, v = new_est, v_new
    raise RuntimeError("power iteration failed to converge")


def lambda_max_two_products(gram, labels, weights, sigma, cpos, cneg):
    """max_j ||grad_j at alpha = 0|| / w_j, with the margins of alpha = 0
    formed from d Gram products before the d gradient products.

    Same floating-point steps as the solver's risk slopes and group norms,
    written out here, so the result is comparable bit for bit; kept as the
    reference for the one-product lambda_max.
    """
    labels = np.asarray(labels, dtype=float)
    n = labels.size
    f = np.zeros(n)
    for K in gram:
        f += K @ np.zeros(n)
    normalizer = np.logaddexp(0.0, 1.0 / sigma)
    y_sigma = labels / sigma
    c = np.where(labels > 0, cpos, cneg) / (n * normalizer)
    u = 1.0 / sigma - y_sigma * (f + 0.0)
    common = -c * y_sigma * expit(u)
    grads = [K @ common for K in gram]
    return max(max(float(np.sqrt(np.sum(g * g))) - 0.0, 0.0) / w
               for g, w in zip(grads, weights))


def metric_prox_newton(u, m, thresh, max_iters=100):
    """argmin_b (1/2)(b - u)^T diag(m) (b - u) + thresh ||b||, for m > 0.

    Zero when 0 is in the subdifferential there (||m u|| <= thresh).
    Otherwise damped Newton on b itself, in all coordinates at once, with
    exact gradients and Hessians of the smoothed objective that replaces
    ||b|| by sqrt(||b||^2 + eps^2), warm-started from b = u through
    eps = 1, 0.1, ..., 1e-15 (smooth and strongly convex at each eps).
    """
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m * u) <= thresh:
        return np.zeros_like(u)
    b = u.copy()
    for eps in 10.0 ** -np.arange(16):
        def value(v):
            return (0.5 * np.sum(m * (v - u) ** 2)
                    + thresh * np.sqrt(v @ v + eps * eps))
        for _ in range(max_iters):
            r = np.sqrt(b @ b + eps * eps)
            grad = m * (b - u) + thresh * b / r
            hess = np.diag(m) + (thresh / r) * (np.eye(b.size)
                                                 - np.outer(b, b) / r ** 2)
            step = np.linalg.solve(hess, grad)
            t = 1.0
            while value(b - t * step) > value(b) and t > 1e-12:
                t *= 0.5
            b = b - t * step
            if np.linalg.norm(t * step) <= 1e-16 * (1.0 + np.linalg.norm(b)):
                break
    return b
