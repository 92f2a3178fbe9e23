import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from bistoch import corrector as cor
from bistoch.cli import main
from bistoch.env import (ConductanceField, Environment,
                         homogeneous_environment, random_environment)
from bistoch.errors import (DenseCapExceeded, InconsistentRHS, NoConvergence,
                            NotPositiveDefinite, Reducible)
from bistoch.helmholtz import laplacian_apply
from bistoch.mart import bounds, drift_fields
from bistoch.torus import Torus


# -- assembly ------------------------------------------------------------------


def test_gradient_matrix_by_direct_evaluation():
    t = Torus(2, 4)
    G = cor.gradient_matrix(t)
    assert G.shape == (t.ndir * t.n, t.n)
    rng = np.random.default_rng(0)
    u = rng.normal(size=t.n)
    g = (G @ u).reshape(t.ndir, t.n)
    for k in range(t.ndir):
        assert np.array_equal(g[k], u[t.nbr[:, k]] - u)


def test_homogeneous_assembly_is_laplacian(env_homog):
    ops = cor.assemble(env_homog)
    assert ops.s_factorization == 0.0
    assert ops.a_factorization == 0.0
    assert ops.a_antisymmetry == 0.0
    assert ops.row_sums == 0.0 and ops.col_sums == 0.0
    f = np.arange(env_homog.torus.n, dtype=float)
    assert np.allclose(ops.S @ f, -laplacian_apply(env_homog.torus, f),
                       atol=1e-12)
    assert (ops.A != 0).nnz == 0


@pytest.mark.parametrize("d,L,seed", [(2, 8, 0), (2, 8, 4), (3, 4, 3)])
def test_assembly_residuals(d, L, seed):
    ops = cor.assemble(random_environment(d, L, seed=seed))
    assert ops.s_factorization < 1e-13
    assert ops.a_factorization < 1e-13
    assert ops.a_antisymmetry < 1e-13
    assert ops.row_sums < 1e-12 and ops.col_sums < 1e-12
    # L = A - S with zero row and column sums: bistochastic generator
    assert np.allclose((ops.L @ np.ones(ops.L.shape[0])), 0.0, atol=1e-12)


def test_assembly_residuals_stay_sparse():
    env = random_environment(2, 32, seed=3)
    n = env.torus.n
    tracemalloc.start()
    try:
        cor.assemble(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n  # less than one dense n x n float64 array


def test_export_coo_round_trip(tmp_path, env_rand, env_rand_file):
    assert main(["corrector", "--env", env_rand_file, "--coo", str(tmp_path / "ops")]) == 0
    ops = cor.assemble(env_rand)
    lines = (tmp_path / "ops_S.txt").read_text().splitlines()
    assert lines[0] == "row,col,value"
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, v = line.split(",")
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    n = env_rand.torus.n
    back = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    assert np.array_equal(back.toarray(), ops.S.toarray())
    # row-major ordering
    keys = [r * n + c for r, c in zip(rows, cols)]
    assert keys == sorted(keys)


def _spy(monkeypatch, name):
    """Record the arguments of each call to corrector.<name>, which still runs."""
    calls, real = [], getattr(cor, name)
    monkeypatch.setattr(cor, name, lambda *args: calls.append(args) or real(*args))
    return calls


# the assembly cases above; the two-point chain has no stream tensor
ASSEMBLY_CASES = ["env_homog", "env_two_point", "2-8-0", "2-8-4", "3-4-3"]


def _case_env(case, request):
    if case.startswith("env_"):
        return request.getfixturevalue(case)
    d, L, seed = map(int, case.split("-"))
    return random_environment(d, L, seed=seed)


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_solves_form_no_certificate(case, request, monkeypatch):
    env = _case_env(case, request)
    f = drift_fields(env)
    grads = _spy(monkeypatch, "gradient_matrix")
    streams = _spy(monkeypatch, "stream_edge_operator")
    cor.effective_diffusivity(env)
    cor.solve_harmonic(env, -(f.phi[:, 0] + f.psi[:, 0]))
    ops = cor.assemble(env)
    ops.solve(-(f.phi[:, 0] + f.psi[:, 0]))
    assert grads == [] and streams == []
    assert not {"a_antisymmetry", "row_sums", "col_sums"} & vars(ops).keys()
    s_fact = [ops.s_factorization for _ in range(2)]
    assert len(grads) == 1 and streams == []
    a_fact = [ops.a_factorization for _ in range(2)]
    assert len(grads) == 1 and len(streams) == (env.h is not None)
    # the values of the eager construction, to the bit
    G = cor.gradient_matrix(env.torus)
    D = scipy.sparse.diags(cor.edge_conductances(env))
    assert s_fact == 2 * [float(abs(ops.S - 0.5 * (G.T @ D @ G)).max())]
    if env.h is None:
        assert a_fact == [None, None]
    else:
        H = cor.stream_edge_operator(env)
        assert a_fact == 2 * [float(abs(ops.A - 0.5 * (G.T @ H @ G)).max())]
    ones = np.ones(env.torus.n)
    assert ops.a_antisymmetry == float(abs(ops.A + ops.A.T).max())
    assert ops.row_sums == float(np.max(np.abs(ops.L @ ones)))
    assert ops.col_sums == float(np.max(np.abs(ops.L.T @ ones)))


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_a_strided_right_side_solves_as_its_contiguous_copy(case, request):
    # sigma2 solves the strided columns of -(phi + psi), and the spectral
    # check reads its axis-0 solve in place of a solve of its own
    env = _case_env(case, request)
    ops = cor.assemble(env)
    f = drift_fields(env)
    rhs_all = -(f.phi + f.psi)
    for i, shared in enumerate(ops.diffusivity.solutions):
        column = rhs_all[:, i]
        assert column.flags.c_contiguous == (env.torus.d == 1)
        got, want = ops.solve(column), ops.solve(np.ascontiguousarray(column))
        for sol in (got, shared):
            assert np.array_equal(sol.potential, want.potential)
            assert np.array_equal(sol.gradient, want.gradient)
            assert (sol.residual, sol.iterations) == (want.residual, want.iterations)


def test_corrector_coo_assembles_once(tmp_path, env_rand_file, monkeypatch):
    calls = _spy(monkeypatch, "assemble")
    assert main(["corrector", "--env", env_rand_file, "-o", str(tmp_path / "chi.csv"),
                 "--coo", str(tmp_path / "ops")]) == 0
    assert len(calls) == 1


# -- spectral operator ------------------------------------------------------------


@pytest.mark.parametrize("d,L,seed", [(1, 8, 0), (2, 8, 1), (2, 4, 2),
                                      (3, 4, 3), (1, 64, 4), (2, 16, 5)])
def test_spectral_certificates(d, L, seed):
    env = random_environment(d, L, seed=seed)
    spec = cor.build_spectral_operator(env)
    assert np.sum(spec.s_eigenvalues <= 0.0) == 1
    assert spec.skewness <= 1e-11
    assert spec.min_singular >= 1.0 - 1e-11


def test_skew_quadratic_form_vanishes(env_rand):
    spec = cor.build_spectral_operator(env_rand)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = spec.projector @ rng.normal(size=env_rand.torus.n)
        assert abs(v @ (spec.B @ v)) <= 1e-11 * (v @ v)


def test_riesz_certificate(env_rand):
    spec = cor.build_spectral_operator(env_rand)
    rc = cor.riesz_certificate(env_rand, spec)
    assert set(rc) == {"gram_vs_projector", "idempotency", "symmetry"}
    assert max(rc.values()) <= 1e-11


def _full_lambda(env, spec):
    G = cor.gradient_matrix(env.torus)
    r_edge = np.sqrt(cor.edge_conductances(env))
    return (r_edge[:, None] * (G @ spec.S_invhalf)) / np.sqrt(2.0)


def _full_riesz(env, spec):
    # the full-matrix formulas, each residual over whole edge-space arrays
    Lam = _full_lambda(env, spec)
    pi = Lam @ Lam.T
    return {"gram_vs_projector": float(np.max(np.abs(Lam.T @ Lam - spec.projector))),
            "idempotency": float(np.max(np.abs(pi @ pi - pi))),
            "symmetry": float(np.max(np.abs(pi - pi.T)))}


def _riesz_hex(rc):
    return {k: v.hex() for k, v in rc.items()}


# (d, L, seed, random_environment keywords); ids name the case as d-L-seed
RIESZ_CASES = [
    pytest.param(2, 16, 4, {}, id="2-16-4"),  # m/2 is one block
    pytest.param(3, 6, 10, {}, id="3-6-10"),
    pytest.param(3, 8, 2, {}, id="3-8-2"),
    pytest.param(1, 64, 0, {}, id="1-64-0"),
    # Lambda's rows pair but Pi's need not (with OpenBLAS 0.3.31 they do not
    # here); a certificate that trusted Lambda read 0x1.9p-50, not 0x1.94p-50
    pytest.param(1, 17, 5, {}, id="1-17-5"),
    pytest.param(2, 2, 1, {}, id="2-2-1"),  # x + e_k and x - e_k are one site
    pytest.param(3, 2, 1, {}, id="3-2-1"),
    pytest.param(2, 8, 3, {"generator": "totally-asymmetric", "h_dist": ("gaussian", 3.0)},
                 id="2-8-3-totally-asymmetric"),
    pytest.param(2, 8, 7, {}, id="2-8-7"),  # the README environment
    pytest.param(2, 12, 3, {}, id="2-12-3"),  # m/2 = 288, not a multiple of RIESZ_BLOCK
]


@pytest.mark.parametrize("d,L,seed,laws", RIESZ_CASES)
def test_riesz_blocks_match_full_matrices(d, L, seed, laws):
    env = random_environment(d, L, seed=seed, **laws)
    spec = cor.build_spectral_operator(env)
    got = cor.riesz_certificate(env, spec)
    assert _riesz_hex(got) == _riesz_hex(_full_riesz(env, spec))
    # the premise of the strips from the diagonal on: numpy mirrors X X^T
    # from one triangle, so Pi is symmetric to the bit
    Lam = _full_lambda(env, spec)
    pi = Lam @ Lam.T
    assert np.array_equal(pi, pi.T)
    assert got["symmetry"] == 0.0


def _spy_on_h(monkeypatch):
    seen = []
    residuals = cor._projector_residuals

    def spy(pi, h):
        seen.append((pi.shape[0], h))
        return residuals(pi, h)

    monkeypatch.setattr(cor, "_projector_residuals", spy)
    return seen


@pytest.mark.parametrize("d,L,seed", [(2, 8, 7), (3, 6, 10)])  # d n = 128 and 648 rows
def test_riesz_reads_the_leading_block_when_orientations_pair(monkeypatch, d, L, seed):
    seen = _spy_on_h(monkeypatch)
    env = random_environment(d, L, seed=seed)
    cor.riesz_certificate(env, cor.build_spectral_operator(env))
    m = env.torus.ndir * env.torus.n
    assert seen == [(m, m // 2)]


def test_riesz_reads_every_row_when_orientations_do_not_pair(monkeypatch):
    # one reverse-orientation conductance differs from its forward partner,
    # so its row of Lambda is no longer the forward row negated
    env = random_environment(2, 8, seed=7)
    spec = cor.build_spectral_operator(env)
    full = env.s.full.copy()
    full[5, env.torus.d] *= 1.5
    skewed = Environment(env.torus, ConductanceField(env.torus, full), b=env.b, h=env.h)
    seen = _spy_on_h(monkeypatch)
    got = cor.riesz_certificate(skewed, spec)
    assert seen == [(256, 256)]
    assert _riesz_hex(got) == _riesz_hex(_full_riesz(skewed, spec))


def _full_residuals(pi):
    return float(np.max(np.abs(pi @ pi - pi))), float(np.max(np.abs(pi - pi.T)))


def test_projector_residual_blocks_match_full_matrix():
    # X X^T is a symmetric rank-k update, so symmetric to the bit like Pi;
    # the ragged last block and tile exercise the edges of both reductions
    m = 2 * cor.RIESZ_BLOCK + 37
    x = np.random.default_rng(3).normal(size=(m, m // 2))
    pi = x @ x.T
    got = cor._projector_residuals(pi, m)
    assert [v.hex() for v in got] == [v.hex() for v in _full_residuals(pi)]
    assert got[1] == 0.0
    for site in [(-1, -2),  # in the last tile only
                 (-1, 0)]:  # in a tile strictly below the diagonal only
        bad = pi.copy()
        bad[site] = np.nan
        assert np.isnan(cor._projector_residuals(bad, m)).all(), site


def test_riesz_certificate_propagates_nan():
    env = random_environment(2, 16, seed=4)
    spec = cor.build_spectral_operator(env)
    S_invhalf = spec.S_invhalf.copy()
    S_invhalf[5, 7] = np.nan
    rc = cor.riesz_certificate(env, dataclasses.replace(spec, S_invhalf=S_invhalf))
    assert all(np.isnan(v) for v in rc.values())


def test_riesz_certificate_holds_one_block():
    env = random_environment(2, 16, seed=4)
    spec = cor.build_spectral_operator(env)
    m = env.torus.ndir * env.torus.n
    tracemalloc.start()
    try:
        cor.riesz_certificate(env, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * m * m  # less than three dense edge-space arrays


def test_dense_cap_enforced():
    with pytest.raises(DenseCapExceeded):
        cor.build_spectral_operator(homogeneous_environment(2, 80))


def test_reducible_conductances_detected():
    t4 = Torus(1, 4)
    s_dead = np.array([[1.0], [0.0], [0.0], [1.0]])
    env = Environment(t4, ConductanceField.from_canonical(t4, s_dead),
                      weak_ellipticity=False)
    with pytest.raises(Reducible):
        cor.build_spectral_operator(env)


def test_negative_conductance_rejected():
    t4 = Torus(1, 4)
    s_neg = np.array([[1.0], [-0.5], [1.0], [1.0]])
    env = Environment(t4, ConductanceField.from_canonical(t4, s_neg),
                      weak_ellipticity=False)
    with pytest.raises(NotPositiveDefinite):
        cor.build_spectral_operator(env)


# -- harmonic solves ---------------------------------------------------------------


def test_krylov_and_spectral_routes_agree(env_rand):
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=env_rand.torus.n)
    rhs -= rhs.mean()
    spec = cor.build_spectral_operator(env_rand)
    sk = cor.solve_harmonic(env_rand, rhs)
    ss = cor.solve_harmonic_spectral(env_rand, rhs, spec=spec)
    assert np.max(np.abs(sk.potential - ss.potential)) <= 1e-8
    assert sk.residual <= 1e-8 * np.abs(rhs).max()
    assert abs(sk.potential.mean()) < 1e-12
    assert cor.harmonic_equation_residual(env_rand, sk, rhs) <= 1e-8
    assert cor.harmonic_equation_residual(env_rand, ss, rhs) <= 1e-8


def test_inconsistent_rhs(env_rand):
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=env_rand.torus.n)
    rhs -= rhs.mean()
    with pytest.raises(InconsistentRHS):
        cor.solve_harmonic(env_rand, rhs + 0.5)


def test_unreachable_residual_cap(env_rand, monkeypatch):
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=env_rand.torus.n)
    rhs -= rhs.mean()
    monkeypatch.setattr(cor, "RESIDUAL_CAP", 1e-20)
    with pytest.raises(NoConvergence):
        cor.solve_harmonic(env_rand, rhs)


def test_a_nan_conductance_fails_the_residual_cap(env_rand):
    # a NaN residual compares false with the cap, so the gate must reject it
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=env_rand.torus.n)
    rhs -= rhs.mean()
    s = env_rand.s.full.copy()
    s[5, 0] = np.nan
    env = Environment(env_rand.torus, ConductanceField(env_rand.torus, s),
                      b=env_rand.b, h=env_rand.h)
    with pytest.raises(NoConvergence, match="residual nan"):
        cor.solve_harmonic(env, rhs)


# -- effective diffusivity -----------------------------------------------------------


def test_homogeneous_diffusivity_exact(env_homog):
    res = cor.effective_diffusivity(env_homog)
    assert np.allclose(res.sigma2, 2.0 * np.eye(2), atol=1e-12)
    assert max(np.abs(sol.potential).max() for sol in res.solutions) < 1e-9


def test_alternating_chain_diffusivity(env_two_point):
    res = cor.effective_diffusivity(env_two_point)
    assert abs(res.sigma2[0, 0] - 3.2) < 1e-10


def test_random_chain_matches_harmonic_mean():
    t = Torus(1, 16)
    draw = np.random.default_rng(7).choice([1.0, 4.0], size=16)
    env = Environment(t, ConductanceField.from_canonical(t, draw[:, None]))
    res = cor.effective_diffusivity(env)
    hm = 1.0 / np.mean(1.0 / draw)
    assert abs(res.sigma2[0, 0] - 2.0 * hm) < 1e-10


def test_spectral_operator_keeps_its_assembly(env_rand, monkeypatch):
    spec = cor.build_spectral_operator(env_rand)
    f = drift_fields(env_rand)
    rhs = -(f.phi[:, 0] + f.psi[:, 0])
    calls = _spy(monkeypatch, "assemble")
    cor.solve_harmonic_spectral(env_rand, rhs, spec=spec)
    assert calls == []
    cor.effective_diffusivity(env_rand)
    assert len(calls) == 1  # one assembly for every axis


def dense_sigma2(env) -> np.ndarray:
    """sigma2 from dense resolvent solves of every corrector: the oracle of the Krylov route."""
    spec = cor.build_spectral_operator(env)
    f = drift_fields(env)
    grads = np.stack([cor.solve_harmonic_spectral(env, -(f.phi + f.psi)[:, i], spec=spec).gradient
                      for i in range(env.torus.d)], axis=2)
    u = env.torus.directions.astype(float)[None] + grads
    return np.einsum("xk,xki,xkj->ij", env.s.full, u, u) / env.torus.n


def test_diffusivity_routes_agree(env_rand):
    a = cor.effective_diffusivity(env_rand)
    assert np.allclose(a.sigma2, dense_sigma2(env_rand), atol=1e-8)
    assert max(sol.residual for sol in a.solutions) <= 1e-8


def test_p_weight_equals_s_weight(env_rand):
    # flow contributions cancel against the corrected gradients
    f = drift_fields(env_rand)
    D = env_rand.torus.directions.astype(float)
    grads = np.stack([cor.solve_harmonic(env_rand, -(f.phi + f.psi)[:, i]).gradient
                      for i in range(2)], axis=2)
    u = D[None] + grads
    sig_s = np.einsum("xk,xki,xkj->ij", env_rand.s.full, u, u) / env_rand.torus.n
    sig_p = np.einsum("xk,xki,xkj->ij", env_rand.p_full, u, u) / env_rand.torus.n
    assert np.allclose(sig_s, sig_p, atol=1e-11)


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_diffusivity_between_bounds(seed):
    env = random_environment(2, 8, seed=seed)
    sg = cor.effective_diffusivity(env).sigma2
    chk = bounds(env).check(sg, atol=1e-9)
    assert chk["lower_ok"]
    assert chk["upper_ok"]


def test_corrector_csv(tmp_path, env_rand, env_rand_file):
    path = tmp_path / "chi.csv"
    assert main(["corrector", "--env", env_rand_file, "--axis", "2", "-o", str(path)]) == 0
    chi = cor.effective_diffusivity(env_rand).solutions[1].potential
    rows = "".join(f"{x},{v!r}\n" for x, v in enumerate(chi.tolist()))
    assert path.read_bytes() == ("site,value\n" + rows).encode()
