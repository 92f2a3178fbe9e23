"""Finite-volume operators, harmonic coordinates, and effective diffusivity.

The generator splits as L = A - S with S the symmetric (conductance) part
and A the antisymmetric (flow) part.  Both admit exact factorizations over
the edge space: S = (1/2) G^T D(s) G for the discrete gradient G, and
A = (1/2) G^T H G where H contracts edge fields against the stream tensor.
Conjugating by S^(-1/2) turns A into a skew operator B whose resolvent
gives harmonic coordinates; the same system is solved matrix-free by a
Krylov iteration so the two routes certify each other.  OperatorAssembly is
the one operator object per environment; its solve is the one Krylov entry.

Harmonic coordinates fix the walk's drift: chi_i solves L chi_i =
-(phi_i + psi_i), and the corrected coordinate x_i + chi_i(x) turns X_i
into a martingale whose bracket yields the effective diffusivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .env import Environment, _scale, require_mean_zero
from .errors import DenseCapExceeded, NoConvergence, NotPositiveDefinite, Reducible
from .mart import drift_fields
from .torus import Torus

# the most sites of a dense spectral operator: the spectral check's one size rule
DENSE_CAP = 1024
# relative residual target of the Krylov iteration
KRYLOV_TOL = 1e-10
# relative residual above which a harmonic solve raises NoConvergence
RESIDUAL_CAP = 1e-8
# the spectral check's bound on max |B + B^T|, on 1 - the min singular value
# of I + B and on each Riesz residual
SPECTRAL_TOL = 1e-11
# rows per strip of the Riesz certificate: its orientation pairing check and
# its symmetry and idempotency residuals, all read on Pi
RIESZ_BLOCK = 512


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


@dataclass(eq=False)
class OperatorAssembly:
    """Sparse S, A, L of one environment, and the Krylov solve of L g = rhs.

    The operators, sigma2 (diffusivity) and the certificate residuals form on first read, once:
    S, A              the symmetric (conductance) and antisymmetric (flow) parts
    L                 the generator A - S
    a_antisymmetry    max |A + A^T|
    row_sums, col_sums  max |L 1| and max |1^T L|
    G                 the discrete gradient
    s_factorization   max |S - (1/2) G^T D(s) G|
    a_factorization   max |A - (1/2) G^T H G|, None without a stream tensor
    """

    env: Environment

    @cached_property
    def S(self) -> scipy.sparse.csr_matrix:
        t_ = self.env.torus
        idx = np.arange(t_.n)
        s_full = self.env.s.full
        rows = np.concatenate([np.tile(idx, t_.ndir), idx])
        cols = np.concatenate([t_.nbr.T.ravel(), idx])
        data = np.concatenate([-s_full.T.ravel(), s_full.sum(axis=1)])
        return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(t_.n, t_.n)).tocsr()

    @cached_property
    def A(self) -> scipy.sparse.csr_matrix:
        t_ = self.env.torus
        return scipy.sparse.coo_matrix(
            (self.env.b.full.T.ravel(), (np.tile(np.arange(t_.n), t_.ndir), t_.nbr.T.ravel())),
            shape=(t_.n, t_.n)).tocsr()

    @cached_property
    def L(self) -> scipy.sparse.csr_matrix:
        return (self.A - self.S).tocsr()

    @cached_property
    def a_antisymmetry(self) -> float:
        return float(abs(self.A + self.A.T).max())

    @cached_property
    def row_sums(self) -> float:
        return float(np.max(np.abs(self.L @ np.ones(self.env.torus.n))))

    @cached_property
    def col_sums(self) -> float:
        return float(np.max(np.abs(self.L.T @ np.ones(self.env.torus.n))))

    @cached_property
    def G(self) -> scipy.sparse.csr_matrix:
        return gradient_matrix(self.env.torus)

    # the residuals stay sparse: a dense n x n difference would dominate memory
    @cached_property
    def s_factorization(self) -> float:
        D = scipy.sparse.diags(edge_conductances(self.env))
        return float(abs(self.S - 0.5 * (self.G.T @ D @ self.G)).max())

    @cached_property
    def a_factorization(self) -> float | None:
        if self.env.h is None:
            return None
        H = stream_edge_operator(self.env)
        return float(abs(self.A - 0.5 * (self.G.T @ H @ self.G)).max())

    def solve(self, rhs) -> HarmonicSolution:
        """Matrix-free Krylov solve of L g = rhs on the mean-zero subspace.

        The rank-one augmented map v -> L v + c mean(v) with c the mean total
        rate is nonsingular, and for mean-zero rhs its solution is exactly the
        mean-zero solution of L g = rhs.  Jacobi preconditioned.

        Raises
        ------
        InconsistentRHS
            if rhs has nonzero site mean.
        NoConvergence
            if the final residual exceeds RESIDUAL_CAP times the rhs scale.
        """
        rhs = require_mean_zero(rhs)
        L, rate, n = self.L, self.env.total_rate, self.env.torus.n
        c = float(rate.mean())
        diag = np.where(rate > 0, rate, 1.0)
        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda v: L @ v + c * v.mean())
        M = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda v: -v / diag)
        count = [0]

        def cb(xk):
            count[0] += 1

        g, info = scipy.sparse.linalg.lgmres(op, rhs, M=M, rtol=KRYLOV_TOL,
                                             atol=0.0, maxiter=max(200, n),
                                             callback=cb)
        return self.certify(g, rhs, count[0])

    def certify(self, g: np.ndarray, rhs: np.ndarray, iterations: int) -> HarmonicSolution:
        """g made mean-zero, with its residual; NoConvergence above RESIDUAL_CAP."""
        g = g - g.mean()
        res = float(np.max(np.abs(self.L @ g - rhs)))
        if not res <= RESIDUAL_CAP * _scale(rhs):
            raise NoConvergence(iterations, res)
        return HarmonicSolution(potential=g, gradient=g[self.env.torus.nbr] - g[:, None],
                                residual=res, iterations=iterations)

    @cached_property
    def diffusivity(self) -> DiffusivityResult:
        """Corrector-based diffusivity of the corrected coordinates.

        chi_i solves L chi_i = -(phi_i + psi_i); with u = e_i + grad chi_i the
        diffusivity is the conductance-weighted average of u u^T over edges:

            sigma2_ij = avg_x sum_k s_k(x) u_i(x,k) u_j(x,k).

        The flow part drops out of the average by the +/- pairing, so weighting
        by p instead of s gives the same matrix; tests check this.
        """
        env = self.env
        t_ = env.torus
        f = drift_fields(env)
        rhs_all = -(f.phi + f.psi)
        solutions = tuple(self.solve(rhs_all[:, i]) for i in range(t_.d))
        grads = np.stack([sol.gradient for sol in solutions], axis=2)
        u = t_.directions.astype(float)[None, :, :] + grads
        sigma2 = np.einsum("xk,xki,xkj->ij", env.s.full, u, u) / t_.n
        return DiffusivityResult(sigma2=sigma2, solutions=solutions)

    def spectral_operator(self) -> SpectralOperator:
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
        n = self.env.torus.n
        if n > DENSE_CAP:
            raise DenseCapExceeded(n, DENSE_CAP)
        S = self.S.toarray()
        A = self.A.toarray()
        w, V = scipy.linalg.eigh(S)
        cut = 1e-10 * max(float(w[-1]), 1.0)
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
            min_singular=float(svals[-1]), assembly=self,
        )


def assemble(env: Environment) -> OperatorAssembly:
    """The operator object of env; it forms nothing until a member is read."""
    return OperatorAssembly(env)


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


def build_spectral_operator(env: Environment) -> SpectralOperator:
    """OperatorAssembly.spectral_operator on a fresh assembly of env."""
    return assemble(env).spectral_operator()


def riesz_certificate(env: Environment, spec: SpectralOperator) -> dict:
    """Certify the isometry behind the spectral route.

    Lambda = (1/sqrt 2) D(r) G S^(-1/2) satisfies Lambda^T Lambda = P, the
    projector onto mean-zero functions, and Pi = Lambda Lambda^T is a
    symmetric idempotent on edge space.  Returns the max deviations.

    numpy forms Lambda Lambda^T as a symmetric rank-k update, which mirrors
    one triangle into the other, so Pi is symmetric to the bit (the tests
    hold this premise); the symmetry residual certifies it in the same call.

    Every unoriented edge appears twice in edge space.  Direction k + d is
    -e_k, so row (k + d, x + e_k) of Lambda is row (k, x) negated: G's row is
    the same difference taken the other way round, which IEEE subtraction
    negates exactly, and s is stored symmetrically.  Pi's reverse rows are
    then the forward ones negated, up to the rounding of the rank-k update
    (OpenBLAS 0.3.31 breaks it at d=1 L=17), so _orientations_pair checks
    the pairing on Pi itself, to the bit.  When it holds, Pi Pi pairs too,
    since gemm adds the products of every entry in the same order over k:
    every value of both residuals recurs in the leading m/2 x m/2 block,
    m = 2dn, and they read only that block.  Otherwise (a NaN,
    conductances not symmetric to the bit, or rounding that breaks the
    pairing) they read all of Pi.
    """
    Lam = spec.assembly.G @ spec.S_invhalf
    Lam *= np.sqrt(edge_conductances(env))[:, None]
    Lam /= np.sqrt(2.0)
    gram = Lam.T @ Lam
    pi = Lam @ Lam.T
    del Lam
    m = pi.shape[0]
    h = m // 2 if _orientations_pair(env.torus, pi) else m
    idempotency, symmetry = _projector_residuals(pi, h)
    return {
        "gram_vs_projector": float(np.max(np.abs(gram - spec.projector))),
        "idempotency": idempotency,
        "symmetry": symmetry,
    }


def _orientations_pair(torus: Torus, pi: np.ndarray) -> bool:
    """True if Pi's reverse-orientation rows are the forward ones negated.

    Row (k + d) n + (x + e_k) pairs with k n + x, for k < d.  Pi is
    symmetric, so its columns pair as its rows do.  Compared as floats, so
    +0 pairs with -0 (either gives the same |Pi Pi - Pi|) and a NaN pairs
    with nothing.  Read in RIESZ_BLOCK row strips.
    """
    n, d = torus.n, torus.d
    h = d * n
    reverse = ((np.arange(d)[:, None] + d) * n + torus.nbr[:, :d].T).ravel()
    for a in range(0, h, RIESZ_BLOCK):
        rows = slice(a, min(a + RIESZ_BLOCK, h))
        partner = pi[reverse[rows]]
        if not np.array_equal(pi[rows], np.negative(partner, out=partner)):
            return False
    return True


def _projector_residuals(pi: np.ndarray, h: int) -> tuple:
    """max |Pi Pi - Pi| and max |Pi - Pi^T| over rows and columns [0, h).

    Read in RIESZ_BLOCK row strips, each from its own diagonal on: Pi is
    symmetric, and so is Pi Pi, since its entries (i, j) and (j, i) add the
    same products in the same order over k, so the entries below the
    diagonal add nothing to either max.  A Pi Pi entry still sums over all
    m columns of its row.  Besides Pi only one strip is alive at a time.

    A strip is a gemm call of its own shape, which BLAS may block and split
    over its threads unlike the full product, so a strip's entry can differ
    from the full-matrix one in its last bits.  The max matched the
    full-matrix expressions on all 110 environments of a sweep (d = 1 to 4,
    L = 2 to 64) at one and two OpenBLAS threads, and the tests check it on
    their cases, but no BLAS promises it.
    """
    idempotency, symmetry = [], []
    for a in range(0, h, RIESZ_BLOCK):
        rows, cols = slice(a, min(a + RIESZ_BLOCK, h)), slice(a, h)
        strip = pi[rows, cols] - pi[cols, rows].T
        symmetry.append(np.abs(strip, out=strip).max())
        del strip
        strip = pi[rows] @ pi[:, cols]
        strip -= pi[rows, cols]
        idempotency.append(np.abs(strip, out=strip).max())
    # np.max, unlike the builtin max, propagates a NaN from any strip
    return float(np.max(idempotency)), float(np.max(symmetry))


# -- harmonic coordinates ------------------------------------------------------

@dataclass
class HarmonicSolution:
    """Mean-zero potential g with L g = rhs, and its edge gradient."""

    potential: np.ndarray     # (n,)
    gradient: np.ndarray      # (n, 2d), gradient[x, k] = g(x+k) - g(x)
    residual: float           # max |L g - rhs|
    iterations: int


def solve_harmonic(env: Environment, rhs) -> HarmonicSolution:
    """OperatorAssembly.solve on a fresh assembly of env."""
    return assemble(env).solve(rhs)


def solve_harmonic_spectral(env: Environment, rhs,
                            spec: SpectralOperator) -> HarmonicSolution:
    """Dense resolvent solve g = -S^(-1/2) (I - B)^(-1) S^(-1/2) rhs."""
    rhs = require_mean_zero(rhs)
    u = spec.S_invhalf @ rhs
    v = scipy.linalg.solve(np.eye(env.torus.n) - spec.B, u)
    return spec.assembly.certify(-(spec.S_invhalf @ v), rhs, 0)


def harmonic_equation_residual(env: Environment, solution: HarmonicSolution,
                               rhs) -> float:
    """Residual of sum_k p_k(x) w_k(x) = rhs(x) for the solved gradient."""
    lhs = (env.p_full * solution.gradient).sum(axis=1)
    return float(np.max(np.abs(lhs - np.asarray(rhs, dtype=float))))


# -- effective diffusivity -----------------------------------------------------

@dataclass
class DiffusivityResult:
    sigma2: np.ndarray            # (d, d)
    solutions: tuple              # the HarmonicSolution of each axis


def effective_diffusivity(env: Environment) -> DiffusivityResult:
    """OperatorAssembly.diffusivity on a fresh assembly of env."""
    return assemble(env).diffusivity
