import json

import numpy as np
import pytest

from bistoch.env import (ConductanceField, Environment, FlowField,
                         homogeneous_environment, random_environment)
from bistoch.errors import AbsorbingState, NotStationary, Reducible
from bistoch.mart import ks_exponential
from bistoch.torus import Torus
from bistoch.walker import (DensityField, RateField, ensemble_summary_csv,
                            environment_view, occupation_fractions,
                            replica_key, reweight_rates, run_ensemble,
                            simulate, solve_stationary_density)

MASTER = 20240901


def test_replica_key_disjoint():
    keys = {replica_key(m, r) for m in (0, 1, 77) for r in range(100)}
    assert len(keys) == 300
    assert replica_key(5, 3) == (5 << 64) | 3


def test_batch_matches_single_replica_bitwise(env_rand):
    T = 30.0
    res = run_ensemble(env_rand, T, 6, MASTER, x0=0)
    for r in range(6):
        traj = simulate(env_rand, 0, T, replica_key(MASTER, r))
        assert res.n_jumps[r] == traj.n_jumps
        assert res.final_site[r] == traj.sites[-1]
        assert np.array_equal(res.displacement[r, -1], traj.final_displacement)


def test_thread_count_does_not_change_results(env_rand):
    grid = np.array([5.0, 10.0, 20.0])
    kw = dict(site_fields=np.ones((env_rand.torus.n, 1)),
              jump_weights=np.full((env_rand.torus.n, 4, 1), 0.5),
              collect_holding=True)
    a = run_ensemble(env_rand, 20.0, 40, MASTER, grid=grid, threads=1, **kw)
    b = run_ensemble(env_rand, 20.0, 40, MASTER, grid=grid, threads=3, **kw)
    assert np.array_equal(a.displacement, b.displacement)
    assert np.array_equal(a.integrals, b.integrals)
    assert np.array_equal(a.jump_sums, b.jump_sums)
    assert np.array_equal(a.start_site, b.start_site)
    assert np.array_equal(a.n_jumps, b.n_jumps)
    # the holding pool is a multiset; chunking changes only its order
    assert np.array_equal(np.sort(a.holding), np.sort(b.holding))


def test_integral_of_one_equals_elapsed_time(env_rand):
    grid = np.array([1.0, 2.5, 7.0, 10.0])
    res = run_ensemble(env_rand, 10.0, 5, MASTER,
                       grid=grid, site_fields=np.ones((env_rand.torus.n, 1)))
    assert np.array_equal(res.integrals[:, :, 0],
                          np.broadcast_to(grid, (5, 4)))


def test_constant_jump_weight_halves_displacement(env_rand):
    w = np.full((env_rand.torus.n, 4, 1), 0.5)
    res = run_ensemble(env_rand, 15.0, 8, MASTER, jump_weights=w)
    assert np.array_equal(res.jump_sums[..., 0], res.displacement * 0.5)


@pytest.mark.parametrize("tables", [
    dict(site_fields=np.ones(64)),               # not (n, F)
    dict(site_fields=np.ones((63, 1))),          # wrong site count
    dict(jump_weights=np.ones((64, 4))),         # not (n, 2d, W)
])
def test_observer_table_shapes(env_rand, tables):
    with pytest.raises(ValueError):
        run_ensemble(env_rand, 5.0, 2, MASTER, **tables)


def test_uniform_start_consumes_one_draw(env_rand):
    res = run_ensemble(env_rand, 1.0, 4, MASTER)
    n = env_rand.torus.n
    for r in range(4):
        g = np.random.Generator(np.random.Philox(key=replica_key(MASTER, r)))
        expect = min(int(g.random() * n), n - 1)
        assert res.start_site[r] == expect


def _env_with_dead_site():
    # d=1 ring with site 2 cut off on both sides
    t = Torus(1, 4)
    s = np.ones((4, 2))
    s[2, :] = 0.0
    s[1, 0] = 0.0  # edge 1 -> 2
    s[3, 1] = 0.0  # edge 3 -> 2
    return Environment(t, ConductanceField(t, s), b=FlowField.zero(t), h=None,
                       weak_ellipticity=False, meta={})


def test_absorbing_state_raised():
    env = _env_with_dead_site()
    with pytest.raises(AbsorbingState):
        simulate(env, 2, 5.0, seed=1)
    with pytest.raises(AbsorbingState):
        run_ensemble(env, 5.0, 3, MASTER, x0=2)


def test_holding_times_exclude_censored_interval(env_rand):
    traj = simulate(env_rand, 0, 25.0, seed=9)
    holds = traj.holding_times(env_rand.total_rate)
    assert len(holds) == traj.n_jumps
    assert np.all(holds > 0)


def test_normalized_holding_times_are_exponential(env_homog):
    res = run_ensemble(env_homog, 50.0, 400, MASTER, collect_holding=True)
    assert res.holding is not None and len(res.holding) > 10000
    assert ks_exponential(res.holding) < 1.36 / np.sqrt(len(res.holding)) * 3


def test_homogeneous_jump_count_mean(env_homog):
    # every site has total rate 4, so n_jumps ~ Poisson(4 T)
    T = 50.0
    res = run_ensemble(env_homog, T, 500, MASTER)
    lam = 4.0 * T
    se = np.sqrt(lam / 500)
    assert abs(res.n_jumps.mean() - lam) < 4 * se


def test_positions_at_step_semantics(env_rand):
    traj = simulate(env_rand, 0, 20.0, seed=3)
    assert traj.n_jumps >= 2
    assert np.array_equal(traj.positions_at(0.0), np.zeros(2))
    t1 = traj.times[0]
    assert np.array_equal(traj.positions_at(t1), traj.displacement[1])
    assert np.array_equal(traj.positions_at(t1 - 1e-12), traj.displacement[0])
    assert np.array_equal(traj.positions_at(traj.T), traj.final_displacement)


def test_occupation_fractions_sum_to_one(env_rand):
    traj = simulate(env_rand, 5, 12.0, seed=4)
    occ = occupation_fractions(traj, env_rand.torus.n)
    assert abs(occ.sum() - 1.0) < 1e-12
    assert np.all(occ >= 0)


def test_environment_view_structure(env_rand):
    traj = simulate(env_rand, 7, 3.0, seed=5)
    view = environment_view(traj)
    assert view[0] == (0.0, 7)
    assert len(view) == traj.n_jumps + 1
    assert [s for _, s in view] == list(traj.sites)


def test_trajectory_jsonl_round_trip(tmp_path, env_rand):
    traj = simulate(env_rand, 0, 8.0, seed=11)
    path = tmp_path / "walk.jsonl"
    traj.to_jsonl(str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "bistoch-traj" and header["version"] == 1
    assert header["x0"] == 0 and header["T"] == 8.0
    records = [json.loads(l) for l in lines[1:]]
    assert len(records) == traj.n_jumps
    assert [r["k"] for r in records] == list(traj.dirs)
    assert np.allclose([r["t"] for r in records], traj.times)


def test_ensemble_summary_csv(tmp_path, env_rand):
    res = run_ensemble(env_rand, 5.0, 4, MASTER, x0=0)
    path = tmp_path / "summary.csv"
    ensemble_summary_csv(res, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,T,X_1,X_2,n_jumps"
    assert len(lines) == 5
    row0 = lines[1].split(",")
    assert int(row0[0]) == replica_key(MASTER, 0)
    assert float(row0[1]) == 5.0
    assert int(row0[4]) == res.n_jumps[0]


@pytest.mark.parametrize("bad_grid", [
    [5.0, 4.0, 10.0],     # not increasing
    [0.0, 10.0],          # starts at zero
    [5.0, 9.0],           # does not end at T
])
def test_grid_validation(env_rand, bad_grid):
    with pytest.raises(ValueError):
        run_ensemble(env_rand, 10.0, 2, MASTER, grid=bad_grid)


# -- stationary density and reweighting ---------------------------------------


def _two_state_rates():
    t = Torus(1, 2)
    p = np.array([[2.0, 2.0], [5.0, 5.0]])
    return RateField(t, p)


def test_two_state_density_closed_form():
    # rho is proportional to 1/total-rate for a two-site chain
    dens = solve_stationary_density(_two_state_rates())
    assert np.allclose(dens.rho, [10.0 / 7.0, 4.0 / 7.0], atol=1e-13)
    assert dens.residual < 1e-12


def test_density_matches_svd_null_space():
    t = Torus(2, 4)
    rng = np.random.default_rng(12)
    rates = RateField(t, rng.uniform(0.5, 2.0, size=(t.n, 4)))
    dens = solve_stationary_density(rates)
    # independent route: null vector of the transposed generator by SVD
    from bistoch.walker import _generator_matrix
    QT = _generator_matrix(t, rates.p_full).T.toarray()
    _, sv, vt = np.linalg.svd(QT)
    null = vt[-1]
    null = null * (t.n / null.sum())
    assert sv[-1] < 1e-10 * sv[0]
    assert np.allclose(dens.rho, null, atol=1e-9)


def test_sparse_route_agrees_with_dense():
    t = Torus(2, 4)
    rng = np.random.default_rng(21)
    rates = RateField(t, rng.uniform(0.5, 2.0, size=(t.n, 4)))
    dense = solve_stationary_density(rates, dense_cap=4096)
    sparse = solve_stationary_density(rates, dense_cap=1)
    assert np.allclose(dense.rho, sparse.rho, atol=1e-8)


def test_reducible_rates_detected():
    t = Torus(1, 4)
    p = np.ones((4, 2))
    p[0, :] = 0.0  # no way out of site 0
    with pytest.raises(Reducible):
        solve_stationary_density(RateField(t, p))


def test_reweight_restores_bistochasticity():
    t = Torus(2, 4)
    rng = np.random.default_rng(30)
    rates = RateField(t, rng.uniform(0.5, 2.0, size=(t.n, 4)))
    dens = solve_stationary_density(rates)
    env = reweight_rates(rates, dens)
    report = env.validate()
    assert report.passed
    assert report.max_residual < 1e-10


def test_reweight_preserves_embedded_chain():
    t = Torus(2, 4)
    rng = np.random.default_rng(31)
    p = rng.uniform(0.5, 2.0, size=(t.n, 4))
    rates = RateField(t, p)
    dens = solve_stationary_density(rates)
    env = reweight_rates(rates, dens)
    chain_old = p / p.sum(axis=1, keepdims=True)
    chain_new = env.p_full / env.p_full.sum(axis=1, keepdims=True)
    assert np.allclose(chain_old, chain_new, atol=1e-13)


def test_reweight_rejects_non_stationary_density():
    rates = _two_state_rates()
    wrong = DensityField(rates.torus, np.ones(2))
    with pytest.raises(NotStationary):
        reweight_rates(rates, wrong)


def test_rate_field_validates_shape_and_sign():
    t = Torus(1, 4)
    with pytest.raises(ValueError):
        RateField(t, np.ones((4, 3)))
    with pytest.raises(ValueError):
        RateField(t, -np.ones((4, 2)))
