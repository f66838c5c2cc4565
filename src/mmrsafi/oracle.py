"""Independent reference computations for the tests.

None of this shares code with the main solvers: the prox and full problems
are solved by dense ADMM with Cholesky factorizations, gradients are checked
by central differences, and spectral norms by one-sided Jacobi.  Linear maps
become dense matrices through dense_matrix_of, capped at 4,096 inputs, and
MatrixOp applies one as a forward operator.  The ADMM oracles take at most
64 unknowns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class OracleError(RuntimeError):
    """Raised when an oracle fails its own convergence certificate."""


@dataclass
class AdmmConfig:
    rho: float = 1.0
    iters: int = 20000
    tol: float = 1e-10

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")


class MatrixOp:
    """Dense matrix as a forward operator on flattened images (test scale)."""

    def __init__(self, matrix, in_shape):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.in_shape = tuple(in_shape)
        if self.matrix.shape[1] != int(np.prod(in_shape)):
            raise ValueError("matrix columns do not match input size")
        self.norm = float(np.linalg.norm(self.matrix, 2))
        self.normal_is_identity = False

    def forward(self, x):
        return self.matrix @ np.asarray(x, dtype=np.float64).ravel()

    def adjoint(self, y):
        return (self.matrix.T @ np.asarray(y, dtype=np.float64).ravel()).reshape(
            self.in_shape)

    def normal(self, x):
        return self.adjoint(self.forward(x))


# Largest input dimension the dense oracle will materialize.
_DENSE_MAX_DIM = 4096


def dense_matrix_of(apply_fn, in_shape):
    """Materialize a linear map column by column (oracle support)."""
    n = int(np.prod(in_shape))
    if n > _DENSE_MAX_DIM:
        raise ValueError(
            f"input dimension {n} exceeds oracle cap {_DENSE_MAX_DIM}")
    cols = []
    basis = np.zeros(in_shape)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        cols.append(np.asarray(apply_fn(basis), dtype=np.float64).ravel().copy())
        flat[j] = 0.0
    return np.stack(cols, axis=1)


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _project(X, w):
    if X.is_all_space:
        return w
    return np.clip(w, X.lower, X.upper)


def admm_prox_oracle(z, L_dense, gamma, X, cfg=None):
    """Dense ADMM for min_{w in X} 0.5*||w - z||^2 + gamma*||L w||_1.

    Splits v1 = L w (and v2 = w when X is a box); the w-update is an exact
    Cholesky solve, the v-updates are soft-threshold and box projection.
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    z = np.asarray(z, dtype=np.float64).ravel()
    L = np.asarray(L_dense, dtype=np.float64)
    n = z.size
    if n > 64:
        raise ValueError("oracle problems are capped at 64 unknowns")
    rho = cfg.rho
    boxed = not X.is_all_space
    M = np.eye(n) + rho * (L.T @ L)
    if boxed:
        M += rho * np.eye(n)
    chol = cho_factor(M)

    v1 = L @ z
    d1 = np.zeros_like(v1)
    v2 = _project(X, z.copy()) if boxed else None
    d2 = np.zeros(n) if boxed else None
    w = z.copy()
    for _ in range(cfg.iters):
        rhs = z + rho * (L.T @ (v1 - d1))
        if boxed:
            rhs += rho * (v2 - d2)
        w = cho_solve(chol, rhs)
        Lw = L @ w
        v1_old = v1
        v1 = _soft(Lw + d1, gamma / rho)
        d1 = d1 + Lw - v1
        dual_res = rho * np.linalg.norm(L.T @ (v1 - v1_old))
        primal_res = np.linalg.norm(Lw - v1)
        if boxed:
            v2_old = v2
            v2 = _project(X, w + d2)
            d2 = d2 + w - v2
            dual_res += rho * np.linalg.norm(v2 - v2_old)
            primal_res = max(primal_res, np.linalg.norm(w - v2))
        if max(primal_res, dual_res) < cfg.tol:
            return _project(X, w)
    raise OracleError("prox oracle did not converge within the budget")


def admm_full_oracle(H_dense, y, L_dense, lam, X, cfg=None):
    """Dense ADMM for min_{x in X} 0.5*||H x - y||^2 + lam*||L x||_1.

    Certified by an explicit KKT residual (stationarity, dual feasibility,
    complementarity) below 1e-8 before the solution is returned.
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    y = np.asarray(y, dtype=np.float64).ravel()
    H = np.asarray(H_dense, dtype=np.float64)
    L = np.asarray(L_dense, dtype=np.float64)
    n = H.shape[1]
    if n > 64:
        raise ValueError("oracle problems are capped at 64 unknowns")
    rho = cfg.rho
    boxed = not X.is_all_space
    M = H.T @ H + rho * (L.T @ L)
    if boxed:
        M += rho * np.eye(n)
    if np.linalg.matrix_rank(M, tol=1e-10) < n:
        raise OracleError("H and L share a nontrivial common kernel")
    chol = cho_factor(M)
    Hty = H.T @ y

    x = np.zeros(n)
    v1 = L @ x
    d1 = np.zeros_like(v1)
    v2 = np.zeros(n) if boxed else None
    d2 = np.zeros(n) if boxed else None
    for _ in range(cfg.iters):
        rhs = Hty + rho * (L.T @ (v1 - d1))
        if boxed:
            rhs += rho * (v2 - d2)
        x = cho_solve(chol, rhs)
        Lx = L @ x
        v1_old = v1
        v1 = _soft(Lx + d1, lam / rho)
        d1 = d1 + Lx - v1
        dual_res = rho * np.linalg.norm(L.T @ (v1 - v1_old))
        primal_res = np.linalg.norm(Lx - v1)
        if boxed:
            v2_old = v2
            v2 = _project(X, x + d2)
            d2 = d2 + x - v2
            dual_res += rho * np.linalg.norm(v2 - v2_old)
            primal_res = max(primal_res, np.linalg.norm(x - v2))
        if max(primal_res, dual_res) < cfg.tol:
            x = _project(X, x)
            kkt = _kkt_residual(H, y, L, lam, X, x, rho * d1,
                                rho * d2 if boxed else None)
            if kkt > 1e-8:
                raise OracleError(f"KKT residual {kkt:.3e} above certificate")
            return x
    raise OracleError("full oracle did not converge within the budget")


def _kkt_residual(H, y, L, lam, X, x, u1, u2):
    Lx = L @ x
    stat = H.T @ (H @ x - y) + L.T @ u1
    comp = abs(lam * np.sum(np.abs(Lx)) - u1 @ Lx)
    feas = max(0.0, np.max(np.abs(u1)) - lam) if u1.size else 0.0
    box_term = 0.0
    if u2 is not None:
        stat = stat + u2
        # u2 must lie in the normal cone of the box at x.
        at_lo = x <= X.lower + 1e-9
        at_hi = x >= X.upper - 1e-9
        interior = ~(at_lo | at_hi)
        box_term = max(
            np.max(np.abs(u2[interior])) if interior.any() else 0.0,
            np.max(np.maximum(u2[at_lo], 0.0)) if at_lo.any() else 0.0,
            np.max(np.maximum(-u2[at_hi], 0.0)) if at_hi.any() else 0.0,
        )
    return max(np.max(np.abs(stat)), comp, feas, box_term)


def finite_diff_gradient(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    probe = x.copy()
    pflat = probe.reshape(-1)
    for i in range(pflat.size):
        orig = pflat[i]
        pflat[i] = orig + h
        fp = fun(probe)
        pflat[i] = orig - h
        fm = fun(probe)
        pflat[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def jacobi_svd_norm(A, tol=1e-14, max_sweeps=60):
    """Largest singular value by one-sided Jacobi column orthogonalization."""
    A = np.asarray(A, dtype=np.float64)
    if min(A.shape) > 128:
        raise ValueError("oracle SVD capped at 128")
    B = (A if A.shape[0] >= A.shape[1] else A.T).copy()
    n = B.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = B[:, p] @ B[:, q]
                app = B[:, p] @ B[:, p]
                aqq = B[:, q] @ B[:, q]
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                bp = B[:, p].copy()
                B[:, p] = c * bp - s * B[:, q]
                B[:, q] = s * bp + c * B[:, q]
        if not rotated:
            break
    return float(np.sqrt(np.max(np.sum(B ** 2, axis=0))))
