import numpy as np
import pytest
import scipy.sparse.linalg

from bistoch.env import (GENERATORS, FlowField, checkerboard_stream, curl, random_environment,
                         random_stream)
from bistoch.errors import InconsistentRHS, NonzeroFlux, NotDivergenceFree
from bistoch.helmholtz import PoissonSolver, laplacian_apply, stream_from_flow
from bistoch.torus import Torus


def test_poisson_single_mode_oracle():
    # f = cos(2 pi x_1 / L) is an eigenfunction with eigenvalue
    # 2 (cos(2 pi / L) - 1)
    t = Torus(2, 8)
    x1 = t.all_coords()[:, 0]
    f = np.cos(2 * np.pi * x1 / t.L)
    lam = 2.0 * (np.cos(2 * np.pi / t.L) - 1.0)
    u = PoissonSolver(t).solve(f)
    assert np.allclose(u, f / lam, atol=1e-13)
    assert np.allclose(laplacian_apply(t, u), f, atol=1e-13)


def cg_poisson(t: Torus, f: np.ndarray) -> np.ndarray:
    """Mean-zero u with Lap u = f by conjugate gradients: the FFT solver's oracle.

    -Lap is symmetric positive semi-definite with the constants as kernel;
    adding the mean makes it definite without moving mean-zero solutions.
    """
    def matvec(v):
        return -laplacian_apply(t, v) + v.mean()

    op = scipy.sparse.linalg.LinearOperator((t.n, t.n), matvec=matvec, dtype=float)
    u, info = scipy.sparse.linalg.cg(op, -f, rtol=1e-12, atol=0.0, maxiter=40 * t.n)
    assert info == 0
    return u - u.mean()


def test_spectral_and_cg_routes_agree():
    t = Torus(2, 8)
    rng = np.random.default_rng(3)
    f = rng.normal(size=t.n)
    f -= f.mean()
    assert np.allclose(PoissonSolver(t).solve(f), cg_poisson(t, f), atol=1e-10)


def test_poisson_rejects_nonzero_mean():
    t = Torus(2, 4)
    with pytest.raises(InconsistentRHS):
        PoissonSolver(t).solve(np.ones(t.n))


def test_poisson_rejects_a_nan_right_side():
    t = Torus(2, 4)
    f = np.cos(2 * np.pi * t.all_coords()[:, 0] / t.L)
    f[3] = np.nan
    with pytest.raises(InconsistentRHS, match="mean nan"):
        PoissonSolver(t).solve(f)


@pytest.mark.parametrize("d,L", [(2, 4), (2, 8), (3, 4)])
def test_stream_reconstruction_round_trip(d, L):
    t = Torus(d, L)
    rng = np.random.Generator(np.random.Philox(key=d * 100 + L))
    h0 = random_stream(t, rng)
    b0 = curl(h0)
    recon = stream_from_flow(b0)
    scale = max(1.0, float(np.abs(b0.full).max()))
    assert np.max(np.abs(curl(recon).full - b0.full)) <= 1e-10 * scale
    # the tensor itself is gauge-dependent; only curls are compared
    res = recon.symmetry_residuals()
    assert max(res.values()) <= 1e-11 * max(1.0, recon.max_abs())


def test_checkerboard_round_trip_exact_values():
    t = Torus(2, 4)
    b0 = curl(checkerboard_stream(t, 2.0))
    recon = stream_from_flow(b0)
    assert np.allclose(curl(recon).full, b0.full, atol=1e-12)


def test_constant_drift_has_no_stream():
    # b = c e_1 is divergence-free but winds around the torus
    t = Torus(2, 4)
    b_full = np.zeros((t.n, 4))
    b_full[:, 0] = 0.7
    b_full[:, 2] = -0.7
    b = FlowField(t, b_full)
    assert np.max(np.abs(b.divergence())) == 0.0
    assert abs(b.flux()[0]) > 0.5
    with pytest.raises(NonzeroFlux):
        stream_from_flow(b)


def test_non_divergence_free_rejected():
    t = Torus(2, 4)
    rng = np.random.default_rng(1)
    bad = FlowField(t, rng.normal(size=(t.n, 4)))
    with pytest.raises((NotDivergenceFree, NonzeroFlux)):
        stream_from_flow(bad)


def test_a_nan_flow_entry_is_not_divergence_free():
    t = Torus(2, 4)
    b_full = curl(checkerboard_stream(t)).full.copy()
    b_full[9, 1] = np.nan
    with pytest.raises(NotDivergenceFree, match="divergence nan at site 9"):
        stream_from_flow(FlowField(t, b_full))


def test_zero_flow_reconstructs_zero():
    t = Torus(3, 4)
    recon = stream_from_flow(FlowField.zero(t))
    assert recon.max_abs() == 0.0


def _full_route(b):
    """h_{k,l} = D_l u_k - D_k u_l over all 2d x 2d direction pairs, from 2d
    independent potentials u_k = Lap^{-1} b_k: the canonical route's oracle."""
    t = b.torus
    solver = PoissonSolver(t)
    u = np.stack([solver.solve(b.full[:, k]) for k in range(t.ndir)], axis=1)
    h = np.empty((t.n, t.ndir, t.ndir))
    for k in range(t.ndir):
        for l in range(t.ndir):
            h[:, k, l] = (u[t.nbr[:, l], k] - u[:, k]) - (u[t.nbr[:, k], l] - u[:, l])
    return h


@pytest.mark.parametrize("d,L", [(1, 8), (2, 4), (2, 8), (2, 64), (3, 4), (3, 16), (4, 4)])
def test_stream_is_the_canonical_part_of_the_full_route(monkeypatch, d, L):
    solve = PoissonSolver.solve
    calls = []
    for seed in range(3):
        for generator in GENERATORS if d > 1 else GENERATORS[:1]:
            b = random_environment(d, L, seed, generator=generator).b
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(PoissonSolver, "solve", lambda self, f: calls.append(f) or solve(self, f))
                recon = stream_from_flow(b)
            assert len(calls) == d  # one potential per positive direction
            full = _full_route(b)
            i, j = np.array(b.torus.pairs, dtype=int).reshape(-1, 2).T
            assert np.array_equal(recon.canonical, full[:, i, j])
            # the entries the canonical form derives agree with the ones the
            # full route solves for, as far as the Poisson residuals allow
            gap = np.max(np.abs(recon.full() - full))
            assert gap <= 1e-11 * max(1.0, float(np.abs(full).max()))
