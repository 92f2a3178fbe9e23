"""Finite-volume operators, harmonic coordinates, and effective diffusivity.

The generator splits as L = A - S with S the symmetric (conductance) part
and A the antisymmetric (flow) part.  Both admit exact factorizations over
the edge space: S = (1/2) G^T D(s) G for the discrete gradient G, and
A = (1/2) G^T H G where H contracts edge fields against the stream tensor.
Conjugating by S^(-1/2) turns A into a skew operator B whose resolvent
gives harmonic coordinates; the same system is solved matrix-free by a
Krylov iteration so the two routes certify each other.

Harmonic coordinates fix the walk's drift: chi_i solves L chi_i =
-(phi_i + psi_i), and the corrected coordinate x_i + chi_i(x) turns X_i
into a martingale whose bracket yields the effective diffusivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .env import Environment, _scale, require_mean_zero
from .errors import DenseCapExceeded, NoConvergence, NotPositiveDefinite, Reducible
from .mart import drift_fields
from .torus import Torus

DENSE_CAP = 4096
# relative residual target of the Krylov iteration
KRYLOV_TOL = 1e-10
# relative residual above which a harmonic solve raises NoConvergence
RESIDUAL_CAP = 1e-8
# rows per block of the edge-space idempotency residual
RIESZ_BLOCK = 512
# tile side of the edge-space symmetry residual
SYMMETRY_TILE = 64


def edge_conductances(env: Environment) -> np.ndarray:
    """Edge-indexed conductances, index k * n + x."""
    return env.s.full.T.ravel()


def gradient_matrix(torus: Torus) -> scipy.sparse.csr_matrix:
    """Discrete gradient G: (Gf)[k*n + x] = f(x + k) - f(x)."""
    n, ndir = torus.n, torus.ndir
    idx = np.arange(n)
    rows = np.tile(np.arange(ndir * n), 2)
    cols = np.concatenate([torus.nbr.T.ravel(), np.tile(idx, ndir)])
    data = np.concatenate([np.ones(ndir * n), -np.ones(ndir * n)])
    return scipy.sparse.coo_matrix((data, (rows, cols)),
                                   shape=(ndir * n, n)).tocsr()


def stream_edge_operator(env: Environment) -> scipy.sparse.csr_matrix:
    """Edge-space contraction against the stream tensor.

    (H u)_k(x) = (1/2) sum_l h_{k,l}(x) (u_l(x + k) + u_l(x)).
    """
    if env.h is None:
        raise ValueError("environment has no stream tensor")
    t_ = env.torus
    n, ndir = t_.n, t_.ndir
    hf = env.h.full()
    idx = np.arange(n)
    rows, cols, data = [], [], []
    for k in range(ndir):
        for l in range(ndir):
            vals = 0.5 * hf[:, k, l]
            if not np.any(vals):
                continue
            rows.append(k * n + idx)
            cols.append(l * n + t_.nbr[:, k])
            data.append(vals)
            rows.append(k * n + idx)
            cols.append(l * n + idx)
            data.append(vals)
    if not rows:
        return scipy.sparse.csr_matrix((ndir * n, ndir * n))
    return scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndir * n, ndir * n)).tocsr()


@dataclass
class OperatorAssembly:
    """Sparse S, A, L with the residuals of their dual constructions.

    s_factorization   max |S - (1/2) G^T D(s) G|
    a_factorization   max |A - (1/2) G^T H G|, None without a stream tensor
    a_antisymmetry    max |A + A^T|
    row_sums, col_sums  max |L 1| and max |1^T L|
    """

    S: scipy.sparse.csr_matrix
    A: scipy.sparse.csr_matrix
    L: scipy.sparse.csr_matrix
    G: scipy.sparse.csr_matrix
    s_factorization: float
    a_factorization: float | None
    a_antisymmetry: float
    row_sums: float
    col_sums: float


def assemble(env: Environment) -> OperatorAssembly:
    """Build S, A, L and verify each against its edge-space factorization."""
    t_ = env.torus
    n, ndir = t_.n, t_.ndir
    idx = np.arange(n)
    s_full = env.s.full
    b_full = env.b.full

    rows = np.concatenate([np.tile(idx, ndir), idx])
    cols = np.concatenate([t_.nbr.T.ravel(), idx])
    data = np.concatenate([-s_full.T.ravel(), s_full.sum(axis=1)])
    S = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    A = scipy.sparse.coo_matrix(
        (b_full.T.ravel(), (np.tile(idx, ndir), t_.nbr.T.ravel())),
        shape=(n, n)).tocsr()

    G = gradient_matrix(t_)
    D = scipy.sparse.diags(edge_conductances(env))
    S_alt = 0.5 * (G.T @ D @ G)
    # residuals stay sparse: a dense n x n difference would dominate memory
    s_fact = float(abs(S - S_alt).max())

    a_fact = None
    if env.h is not None:
        H = stream_edge_operator(env)
        A_alt = 0.5 * (G.T @ H @ G)
        a_fact = float(abs(A - A_alt).max())

    L = (A - S).tocsr()
    return OperatorAssembly(
        S=S, A=A, L=L, G=G,
        s_factorization=s_fact,
        a_factorization=a_fact,
        a_antisymmetry=float(abs(A + A.T).max()),
        row_sums=float(np.max(np.abs(L @ np.ones(n)))),
        col_sums=float(np.max(np.abs(L.T @ np.ones(n)))),
    )


def export_coo(matrix, path: str) -> None:
    """Write a sparse matrix as 'row,col,value' text, row-major order."""
    coo = scipy.sparse.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as f:
        f.write("row,col,value\n")
        for i in order:
            f.write(f"{int(coo.row[i])},{int(coo.col[i])},"
                    f"{float(coo.data[i])!r}\n")


# -- spectral operator ---------------------------------------------------------

@dataclass
class SpectralOperator:
    """Dense B = S^(-1/2) A S^(-1/2) with its certification metrics.

    B is skew on the mean-zero subspace, so every singular value of I + B
    is at least one; both facts are computed, not assumed.
    """

    B: np.ndarray
    S_invhalf: np.ndarray
    projector: np.ndarray        # orthogonal projector onto mean-zero
    s_eigenvalues: np.ndarray
    skewness: float              # max |B + B^T|
    min_singular: float          # smallest singular value of I + B
    assembly: OperatorAssembly   # the sparse operators B was built from

    def certificate(self) -> dict:
        return {"skewness": self.skewness, "min_singular": self.min_singular,
                "zero_modes": int(np.sum(self.s_eigenvalues <= 0.0))}


def build_spectral_operator(env: Environment) -> SpectralOperator:
    """Diagonalize S and conjugate A into the skew operator B.

    Raises
    ------
    DenseCapExceeded
        if the site count exceeds DENSE_CAP.
    NotPositiveDefinite
        if S has a genuinely negative eigenvalue.
    Reducible
        if the zero eigenvalue of S is not simple (disconnected
        conductance graph).
    """
    n = env.torus.n
    if n > DENSE_CAP:
        raise DenseCapExceeded(n, DENSE_CAP)
    ops = assemble(env)
    S = ops.S.toarray()
    A = ops.A.toarray()
    w, V = scipy.linalg.eigh(S)
    wmax = float(w[-1]) if n else 0.0
    cut = 1e-10 * max(wmax, 1.0)
    if w[0] < -cut:
        raise NotPositiveDefinite(float(w[0]))
    zero = w < cut
    if int(zero.sum()) != 1:
        raise Reducible(f"S has {int(zero.sum())} near-zero eigenvalues")
    w = np.where(zero, 0.0, w)
    inv_root = np.where(zero, 0.0, 1.0 / np.sqrt(np.where(zero, 1.0, w)))
    S_invhalf = (V * inv_root[None, :]) @ V.T
    projector = (V * (~zero).astype(float)[None, :]) @ V.T
    B = S_invhalf @ A @ S_invhalf
    svals = scipy.linalg.svdvals(np.eye(n) + B)
    return SpectralOperator(
        B=B, S_invhalf=S_invhalf, projector=projector, s_eigenvalues=w,
        skewness=float(np.max(np.abs(B + B.T))),
        min_singular=float(svals[-1]), assembly=ops,
    )


def riesz_certificate(env: Environment, spec: SpectralOperator) -> dict:
    """Certify the isometry behind the spectral route.

    Lambda = (1/sqrt 2) D(r) G S^(-1/2) satisfies Lambda^T Lambda = P, the
    projector onto mean-zero functions, and Pi = Lambda Lambda^T is a
    symmetric idempotent on edge space.  Returns the max deviations.

    numpy forms Lambda Lambda^T as a symmetric rank-k update, so Pi is
    symmetric to the bit; the symmetry residual certifies this in the same
    call, and the idempotency residual then reads only the tiles of Pi Pi
    on and above the diagonal (see _projector_residuals).
    """
    Lam = spec.assembly.G @ spec.S_invhalf
    Lam *= np.sqrt(edge_conductances(env))[:, None]
    Lam /= np.sqrt(2.0)
    gram = Lam.T @ Lam
    pi = Lam @ Lam.T
    del Lam
    idempotency, symmetry = _projector_residuals(pi)
    return {
        "gram_vs_projector": float(np.max(np.abs(gram - spec.projector))),
        "idempotency": idempotency,
        "symmetry": symmetry,
    }


def _projector_residuals(pi: np.ndarray) -> tuple:
    """max |Pi Pi - Pi| and max |Pi - Pi^T|, bit for bit.

    The symmetry residual is read first, over the SYMMETRY_TILE tiles on
    and above the diagonal, since |x - y| == |y - x| exactly.  When it is
    0, Pi is symmetric to the bit, and so is Pi Pi: its entries (i, j) and
    (j, i) add the same products, Pi_ik Pi_kj == Pi_jk Pi_ki, and gemm adds
    the products of every entry in the same order over k (the tests check
    this against the full product).  Pi Pi - Pi is then symmetric too, so
    the tiles below the diagonal add nothing to the max, and each
    RIESZ_BLOCK row block forms only the columns from its own diagonal on.
    Otherwise (a NaN, or a Pi that is not symmetric) every block forms all
    columns.  Besides Pi only one block is alive at a time, and every entry
    is formed exactly as in the full-matrix expressions.
    """
    m = pi.shape[0]
    tiles = [slice(a, a + SYMMETRY_TILE) for a in range(0, m, SYMMETRY_TILE)]
    symmetry = []
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            tile = pi[rows, cols] - pi[cols, rows].T
            symmetry.append(np.abs(tile, out=tile).max())
    # np.max, unlike the builtin max, propagates a NaN from any block
    symmetry = float(np.max(symmetry))
    upper = symmetry == 0.0
    idempotency = []
    for a in range(0, m, RIESZ_BLOCK):
        rows, cols = slice(a, a + RIESZ_BLOCK), slice(a if upper else 0, m)
        blk = pi[rows] @ pi[:, cols]
        blk -= pi[rows, cols]
        idempotency.append(np.abs(blk, out=blk).max())
    return float(np.max(idempotency)), symmetry


# -- harmonic coordinates ------------------------------------------------------

@dataclass
class HarmonicSolution:
    """Mean-zero potential g with L g = rhs, and its edge gradient."""

    potential: np.ndarray     # (n,)
    gradient: np.ndarray      # (n, 2d), gradient[x, k] = g(x+k) - g(x)
    residual: float           # max |L g - rhs|
    iterations: int
    method: str


def _certified(torus: Torus, L, g: np.ndarray, rhs: np.ndarray, iterations: int,
               method: str) -> HarmonicSolution:
    """g made mean-zero, with its residual; NoConvergence above RESIDUAL_CAP."""
    g = g - g.mean()
    res = float(np.max(np.abs(L @ g - rhs)))
    if res > RESIDUAL_CAP * _scale(rhs):
        raise NoConvergence(iterations, res)
    return HarmonicSolution(potential=g, gradient=g[torus.nbr] - g[:, None],
                            residual=res, iterations=iterations, method=method)


def solve_harmonic(env: Environment, rhs) -> HarmonicSolution:
    """Matrix-free Krylov solve of L g = rhs on the mean-zero subspace.

    The rank-one augmented map v -> L v + c mean(v) with c the mean total
    rate is nonsingular, and for mean-zero rhs its solution is exactly the
    mean-zero solution of L g = rhs.

    Raises
    ------
    InconsistentRHS
        if rhs has nonzero site mean.
    NoConvergence
        if the final residual exceeds RESIDUAL_CAP times the rhs scale.
    """
    return _solve_krylov(env, assemble(env).L, require_mean_zero(rhs))


def _solve_krylov(env: Environment, L: scipy.sparse.csr_matrix,
                  rhs: np.ndarray) -> HarmonicSolution:
    """The Krylov solve of solve_harmonic on an assembled L and a checked rhs."""
    t_ = env.torus
    n = t_.n
    c = float(env.total_rate.mean())
    diag = np.where(env.total_rate > 0, env.total_rate, 1.0)

    def apply(v):
        return L @ v + c * v.mean()

    def precondition(v):
        return -v / diag

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply)
    M = scipy.sparse.linalg.LinearOperator((n, n), matvec=precondition)
    count = [0]

    def cb(xk):
        count[0] += 1

    g, info = scipy.sparse.linalg.lgmres(op, rhs, M=M, rtol=KRYLOV_TOL,
                                         atol=0.0, maxiter=max(200, n),
                                         callback=cb)
    return _certified(t_, L, g, rhs, count[0], "krylov")


def solve_harmonic_spectral(env: Environment, rhs,
                            spec: SpectralOperator) -> HarmonicSolution:
    """Dense resolvent solve g = -S^(-1/2) (I - B)^(-1) S^(-1/2) rhs."""
    rhs = require_mean_zero(rhs)
    u = spec.S_invhalf @ rhs
    v = scipy.linalg.solve(np.eye(env.torus.n) - spec.B, u)
    return _certified(env.torus, spec.assembly.L, -(spec.S_invhalf @ v), rhs, 0, "spectral")


def harmonic_equation_residual(env: Environment, solution: HarmonicSolution,
                               rhs) -> float:
    """Residual of sum_k p_k(x) w_k(x) = rhs(x) for the solved gradient."""
    lhs = (env.p_full * solution.gradient).sum(axis=1)
    return float(np.max(np.abs(lhs - np.asarray(rhs, dtype=float))))


# -- effective diffusivity -----------------------------------------------------

@dataclass
class DiffusivityResult:
    sigma2: np.ndarray            # (d, d)
    correctors: np.ndarray        # (n, d)
    residuals: np.ndarray         # (d,) harmonic equation residuals
    method: str


def effective_diffusivity(env: Environment, method: str = "krylov") -> DiffusivityResult:
    """Corrector-based diffusivity of the corrected coordinates.

    chi_i solves L chi_i = -(phi_i + psi_i); with u = e_i + grad chi_i the
    diffusivity is the conductance-weighted average of u u^T over edges:

        sigma2_ij = avg_x sum_k s_k(x) u_i(x,k) u_j(x,k).

    The flow part drops out of the average by the +/- pairing, so weighting
    by p instead of s gives the same matrix; tests check this.
    """
    t_ = env.torus
    d = t_.d
    f = drift_fields(env)
    rhs_all = -(f.phi + f.psi)
    if method == "krylov":
        L = assemble(env).L

        def solve(rhs):
            return _solve_krylov(env, L, require_mean_zero(rhs))
    elif method == "spectral":
        spec = build_spectral_operator(env)

        def solve(rhs):
            return solve_harmonic_spectral(env, rhs, spec=spec)
    else:
        raise ValueError(f"unknown method {method!r}")

    chi = np.empty((t_.n, d))
    grads = np.empty((t_.n, t_.ndir, d))
    residuals = np.empty(d)
    for i in range(d):
        sol = solve(rhs_all[:, i])
        chi[:, i] = sol.potential
        grads[:, :, i] = sol.gradient
        residuals[i] = sol.residual

    D = t_.directions.astype(float)
    u = D[None, :, :] + grads
    sigma2 = np.einsum("xk,xki,xkj->ij", env.s.full, u, u) / t_.n
    return DiffusivityResult(sigma2=sigma2, correctors=chi,
                             residuals=residuals, method=method)


def corrector_csv(potential: np.ndarray, path: str) -> None:
    """Write a site-indexed potential as 'site,value' rows."""
    with open(path, "w") as f:
        f.write("site,value\n")
        for x, v in enumerate(np.asarray(potential, dtype=float)):
            f.write(f"{x},{float(v)!r}\n")
