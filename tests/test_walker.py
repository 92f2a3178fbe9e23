import json
import tracemalloc

import numpy as np
import pytest

from bistoch.env import ConductanceField, Environment, FlowField, random_environment
from bistoch.errors import AbsorbingState
from bistoch.mart import ks_exponential
from bistoch.torus import Torus
from bistoch.walker import (_generator, ensemble_summary_csv, replica_key, run_ensemble,
                            simulate)

MASTER = 20240901


def test_replica_key_disjoint():
    keys = {replica_key(m, r) for m in (0, 1, 77) for r in range(100)}
    assert len(keys) == 300
    assert replica_key(5, 3) == (5 << 64) | 3


@pytest.mark.parametrize("master,replica", [(2**64, 0), (0, 2**64), (-1, 0)])
def test_replica_key_rejects_words_outside_64_bits(master, replica):
    assert replica_key(2**64 - 1, 2**64 - 1) == 2**128 - 1
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        replica_key(master, replica)


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
def test_generator_starts_where_a_keyed_philox_starts(key):
    got = _generator(key)
    want = np.random.Generator(np.random.Philox(key=key))
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert got.random(1024).tobytes() == want.random(1024).tobytes()


@pytest.mark.parametrize("key", [-1, 2**128])
def test_generator_rejects_keys_philox_rejects(key):
    with pytest.raises(ValueError, match="key must be positive and less than 2\\*\\*128"):
        _generator(key)


def test_batch_matches_single_replica_bitwise(env_rand):
    T = 30.0
    res = run_ensemble(env_rand, T, 6, MASTER, x0=0)
    for r in range(6):
        traj = simulate(env_rand, 0, T, replica_key(MASTER, r))
        assert res.n_jumps[r] == traj.n_jumps
        assert res.final_site[r] == traj.sites[-1]
        assert np.array_equal(res.displacement[r, -1], traj.final_displacement)


@pytest.mark.parametrize("env, T, grid", [
    pytest.param(random_environment(1, 8, 2), 12.0, [0.5, 3.0, 7.25, 12.0], id="d1"),
    pytest.param(random_environment(2, 4, 5, generator="totally-asymmetric"),
                 10.0, [1.0, 2.5, 6.0, 10.0], id="d2-totally-asymmetric"),
    pytest.param(random_environment(2, 6, 4, s_dist=("lognormal", 0.0, 2.0)),
                 6.0, [0.25, 1.0, 3.5, 6.0], id="d2-spread-finish"),
    pytest.param(random_environment(3, 3, 1), 5.0, [0.75, 2.0, 4.5, 5.0], id="d3"),
])
def test_engine_matches_reference_walker_on_grid(env, T, grid):
    R, x0 = 7, 4
    res = run_ensemble(env, T, R, MASTER, grid=grid, x0=x0)
    for r in range(R):
        traj = simulate(env, x0, T, replica_key(MASTER, r))
        # a zero-rate direction ties its cumulative rate with the one before;
        # the draw must never pick it
        assert np.all(env.p_full[traj.sites[:-1], traj.dirs] > 0)
        assert res.start_site[r] == traj.sites[0]
        assert res.n_jumps[r] == traj.n_jumps
        assert res.final_site[r] == traj.sites[-1]
        # the engine snapshots the pre-jump state: a jump at a grid time lands after it
        idx = np.searchsorted(traj.times, grid, side="left")
        assert np.array_equal(res.displacement[r], traj.displacement[idx])
    if env.meta["params"]["s_dist"][0] == "lognormal":
        # replicas leave the lockstep loop far apart, so most steps run with
        # only part of the ensemble live
        assert res.n_jumps.max() >= 2 * res.n_jumps.min()


@pytest.mark.parametrize("x0", [-1, 64, 2.0, True, None])
def test_start_site_must_be_a_site(env_rand, x0):
    with pytest.raises(ValueError, match="x0"):
        simulate(env_rand, x0, 5.0, seed=1)
    if x0 is not None:
        with pytest.raises(ValueError, match="x0"):
            run_ensemble(env_rand, 5.0, 2, MASTER, x0=x0)


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


def test_negative_total_rate_stops_the_engine_as_the_reference_walker():
    # a conductance law with negative values draws such environments; with a
    # negative rate the clock runs backwards and the walk never reaches T
    t = Torus(1, 4)
    env = Environment(t, ConductanceField(t, np.full((4, 2), -0.5)), b=FlowField.zero(t),
                      h=None, weak_ellipticity=False, meta={})
    assert np.all(env.total_rate < 0)
    with pytest.raises(AbsorbingState):
        simulate(env, 2, 5.0, seed=1)
    with pytest.raises(AbsorbingState):
        run_ensemble(env, 5.0, 3, MASTER, x0=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_walkers_reject_non_finite_rates(value):
    # a NaN rate never ends a holding time, so the walk would never reach T
    t = Torus(1, 4)
    s = np.ones((4, 2))
    s[1, :] = s[0, 0] = s[2, 1] = value  # both edges of site 1
    env = Environment(t, ConductanceField(t, s), b=FlowField.zero(t), h=None,
                      weak_ellipticity=False, meta={})
    match = f"jump rate at site 0, direction 0 is {value}"
    with pytest.raises(ValueError, match=match):
        simulate(env, 2, 5.0, seed=1)
    with pytest.raises(ValueError, match=match):
        run_ensemble(env, 5.0, 3, MASTER, x0=2)


def test_normalized_holding_times_are_exponential(env_homog):
    res = run_ensemble(env_homog, 50.0, 400, MASTER, collect_holding=True)
    assert res.holding is not None and len(res.holding) > 10000
    assert ks_exponential(res.holding) < 1.36 / np.sqrt(len(res.holding)) * 3


def test_storing_holding_times_costs_at_most_a_quarter_over_the_sample(env_homog):
    peaks = {}
    for collect in (False, True):
        tracemalloc.start()
        try:
            res = run_ensemble(env_homog, 50.0, 400, MASTER, collect_holding=collect)
            peaks[collect] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # per-step arrays concatenated at the end held the sample twice
    assert len(res.holding) > 10000
    assert peaks[True] - peaks[False] <= 1.25 * res.holding.nbytes


def test_a_walk_without_jumps_has_an_empty_holding_sample(env_homog):
    res = run_ensemble(env_homog, 1e-9, 20, MASTER, collect_holding=True)
    assert not res.n_jumps.any()
    assert res.holding.dtype == float and res.holding.shape == (0,)


def test_homogeneous_jump_count_mean(env_homog):
    # every site has total rate 4, so n_jumps ~ Poisson(4 T)
    T = 50.0
    res = run_ensemble(env_homog, T, 500, MASTER)
    lam = 4.0 * T
    se = np.sqrt(lam / 500)
    assert abs(res.n_jumps.mean() - lam) < 4 * se


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


@pytest.mark.parametrize("n_replicas", [0, -3, 1.0, 2.5, True, np.float64(2.0), "2"])
def test_replica_count_must_be_a_positive_integer(env_rand, n_replicas):
    with pytest.raises(ValueError, match="n_replicas must be"):
        run_ensemble(env_rand, 1.0, n_replicas, MASTER)


def test_at_times_selects_the_columns_a_coarser_run_samples(env_rand):
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    fine = run_ensemble(env_rand, 8.0, 40, 6, grid=grid, collect_holding=True)
    for coarse_grid in ([8.0], [1.0, 8.0], grid):
        coarse = run_ensemble(env_rand, 8.0, 40, 6, grid=coarse_grid)
        got = fine.at_times(coarse_grid)
        for name in ("times", "displacement", "n_jumps", "start_site", "final_site"):
            a, b = getattr(got, name), getattr(coarse, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.holding is fine.holding
    for off_grid in ([3.0, 8.0], [8.0, 16.0], [0.5, 8.0 + 1e-12]):
        with pytest.raises(ValueError, match="not on the ensemble's grid"):
            fine.at_times(off_grid)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_horizon_must_be_positive_and_finite(env_rand, T):
    # an infinite horizon with the grid [inf] would never finish
    with pytest.raises(ValueError, match="horizon"):
        run_ensemble(env_rand, T, 2, MASTER, grid=[T])
    with pytest.raises(ValueError, match="horizon"):
        simulate(env_rand, 0, T, seed=1)
