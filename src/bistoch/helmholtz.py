"""Constructive stream tensors for divergence-free flows on the torus.

A periodic flow b is the curl of a periodic stream tensor exactly when its
per-direction site averages (the flux) vanish.  The tensor is produced
explicitly as

    h_{k,l} = D_l Lap^{-1} b_k - D_k Lap^{-1} b_l,

where D_k g(x) = g(x+k) - g(x) and Lap = sum_l (T_l - I) is the lattice
Laplacian.  Only the canonical entries h_{e_i,e_j}, i < j, are formed, from
the d potentials u_i = Lap^{-1} b_{e_i}; the antisymmetry of b makes the
formula's other entries the images that StreamTensor derives from them, so
the structural symmetries hold by construction.  Contracting over l gives
sum_l h_{k,l} = b_k because sum_l D_l = Lap and sum_l b_l = 0; that identity
is asserted on the computed tensor, as its curl gap, rather than assumed.
"""

from __future__ import annotations

import numpy as np

from .env import FlowField, StreamTensor, _scale, curl_gap, require_mean_zero
from .errors import NoConvergence, NonzeroFlux, NotDivergenceFree
from .torus import Torus

# relative max-norm tolerance of every residual checked in this module
STREAM_TOL = 1e-10


def laplacian_apply(torus: Torus, f: np.ndarray) -> np.ndarray:
    """Lattice Laplacian: (Lap f)(x) = sum_k [f(x+k) - f(x)] over all 2d steps."""
    out = -torus.ndir * f
    for k in range(torus.ndir):
        out = out + f[torus.nbr[:, k]]
    return out


class PoissonSolver:
    """Solve Lap u = f for mean-zero f with mean-zero u.

    The Laplacian is diagonal in the discrete Fourier basis, with eigenvalue
    lam(m) = 2 * sum_j (cos(2 pi m_j / L) - 1); the constant mode, the one
    zero eigenvalue, is set to zero.  Every solve checks its max-norm
    residual against STREAM_TOL; a right side that is not mean-zero raises
    InconsistentRHS.
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        L = torus.L
        line = 2.0 * (np.cos(2.0 * np.pi * np.arange(L) / L) - 1.0)
        lam = np.zeros(torus.shape)
        for axis in range(torus.d):
            shape = [1] * torus.d
            shape[axis] = L
            lam = lam + line.reshape(shape)
        # the constant mode is divided by 1 and then zeroed
        self._zero = lam == 0.0
        lam[self._zero] = 1.0
        self._eigenvalues = lam

    def solve(self, f: np.ndarray) -> np.ndarray:
        f = require_mean_zero(f)
        t = self.torus
        scale = _scale(f)
        f = f - float(f.mean())
        fhat = np.fft.fftn(f.reshape(t.shape))
        uhat = fhat / self._eigenvalues
        uhat[self._zero] = 0.0
        u = np.real(np.fft.ifftn(uhat)).ravel()
        u = u - u.mean()
        res = float(np.max(np.abs(laplacian_apply(t, u) - f)))
        if not res <= STREAM_TOL * scale:
            raise NoConvergence(0, res)
        return u


def stream_from_flow(b: FlowField) -> StreamTensor:
    """Recover a stream tensor whose curl is the given flow.

    The result is gauge-dependent: two different tensors can share the same
    curl, so round trips compare curls, never tensors.

    Raises
    ------
    NotDivergenceFree
        if some site has nonzero net flow.
    NonzeroFlux
        if some direction has a nonzero site-average (the torus obstruction).
    NoConvergence
        if a Poisson solve, or the curl of the result, misses its residual target.
    """
    t = b.torus
    scale = _scale(b.full)
    div = b.divergence()
    worst = int(np.argmax(np.abs(div)))
    if not abs(div[worst]) <= STREAM_TOL * scale:
        raise NotDivergenceFree(worst, float(div[worst]))
    fl = b.flux()
    for i in range(t.d):
        if not abs(fl[i]) <= STREAM_TOL * scale:
            raise NonzeroFlux(i, float(fl[i]))
    # one potential u_i = Lap^{-1} b_{e_i} per positive direction; the
    # canonical form carries every other entry, so its symmetries hold exactly
    solver = PoissonSolver(t)
    u = [solver.solve(b.full[:, i]) for i in range(t.d)]
    canonical = np.empty((t.n, t.npairs))
    for p, (i, j) in enumerate(t.pairs):
        canonical[:, p] = (u[i][t.nbr[:, j]] - u[i]) - (u[j][t.nbr[:, i]] - u[j])
    out = StreamTensor(t, canonical)
    gap = curl_gap(out, b)
    if not gap <= STREAM_TOL * scale:
        raise NoConvergence(0, gap)
    return out
