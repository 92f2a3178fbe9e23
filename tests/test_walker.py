import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from bistoch import mart, walker
from bistoch.cli import main
from bistoch.env import ConductanceField, Environment, FlowField, random_environment
from bistoch.errors import AbsorbingState, DegenerateEdge
from bistoch.mart import ks_exponential
from bistoch.torus import Torus
from bistoch.walker import SEED_LIMIT, _generator, replica_key, run_ensemble, simulate

MASTER = 20240901


def test_replica_key_disjoint():
    keys = {replica_key(m, r) for m in (0, 1, 77) for r in range(100)}
    assert len(keys) == 300
    assert replica_key(5, 3) == (5 << 64) | 3


@pytest.mark.parametrize("master,replica", [(2**64, 0), (0, 2**64), (-1, 0)])
def test_replica_key_rejects_words_outside_64_bits(master, replica):
    assert replica_key(2**64 - 1, 2**64 - 1) == 2**128 - 1
    with pytest.raises(ValueError, match=re.escape(f"in [0, {2**64})")):
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


# replicas finish between 105 and 296 jumps, so the default-width buffer is
# refilled twice after the first replicas leave the loop
SPREAD_ENV = random_environment(2, 6, 4, s_dist=("lognormal", 0.0, 2.0))
SPREAD_GRID = [0.25, 1.0, 3.5, 6.0]


@pytest.mark.parametrize("env, T, grid, block", [
    pytest.param(random_environment(1, 8, 2), 12.0, [0.5, 3.0, 7.25, 12.0], None, id="d1"),
    pytest.param(random_environment(2, 4, 5, generator="totally-asymmetric"),
                 10.0, [1.0, 2.5, 6.0, 10.0], None, id="d2-totally-asymmetric"),
    pytest.param(SPREAD_ENV, 6.0, SPREAD_GRID, None, id="d2-spread-finish"),
    # a path does not depend on the buffer width: refilled on every step or once
    pytest.param(SPREAD_ENV, 6.0, SPREAD_GRID, 2, id="d2-spread-finish-block2"),
    pytest.param(SPREAD_ENV, 6.0, SPREAD_GRID, 512, id="d2-spread-finish-block512"),
    pytest.param(random_environment(3, 3, 1), 5.0, [0.75, 2.0, 4.5, 5.0], None, id="d3"),
    # the README environment, about 750 jumps per replica
    pytest.param(random_environment(2, 8, 7), 128.0, [1.0, 32.0, 100.0, 128.0], None,
                 id="d2-reference-refill"),
])
def test_engine_matches_reference_walker_on_grid(env, T, grid, block):
    R, x0 = 7, 4
    width = {} if block is None else {"block": block}
    res = run_ensemble(env, T, R, MASTER, grid=grid, x0=x0, **width)
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
    if T == 128.0:
        # every walk reads over 1024 uniforms from its stream, so the engine
        # refills its default buffer of 256 per replica four times mid-walk
        assert res.n_jumps.min() >= 512


def _env_with_falling_cumulative_rates():
    # d=2, L=4, s=1 with flow 1.5 on the edge (3, e1) and -1.25 on (9, e2):
    # the reverse of the first and the second itself get a negative rate
    t = Torus(2, 4)
    flow = np.zeros((t.n, t.d))
    flow[3, 0], flow[9, 1] = 1.5, -1.25
    return Environment(t, ConductanceField(t, np.ones((t.n, t.ndir))),
                       b=FlowField.from_canonical(t, flow))


@pytest.mark.parametrize("block", [2, 6, None])
def test_engine_matches_reference_walker_on_non_monotone_cumulative_rates(monkeypatch, block):
    env = _env_with_falling_cumulative_rates()
    assert env.p_full.min() == -0.5 and env.total_rate.min() == 2.5
    falling = np.flatnonzero((np.diff(env.cum_rates, axis=1) < 0).any(axis=1))
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 2)
    R, x0, T = 64, 3, 40.0
    width = {} if block is None else {"block": block}
    res = run_ensemble(env, T, R, MASTER, x0=x0, **width)
    left_falling = 0
    for r in range(R):
        traj = simulate(env, x0, T, replica_key(MASTER, r))
        assert res.n_jumps[r] == traj.n_jumps
        assert res.final_site[r] == traj.sites[-1]
        assert np.array_equal(res.displacement[r, -1], traj.final_displacement)
        left_falling += np.isin(traj.sites[:-1], falling).sum()
    # the walks draw their direction at the sites whose cumulative rates fall
    assert left_falling > 0


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


@pytest.mark.parametrize("weight", [0.5, -1.0])
def test_constant_jump_weight_scales_displacement(env_rand, weight):
    # a negative weight puts -0.0 in the engine's off-axis jump-table
    # entries; no sum may pick one up, and the early grid times hold zeros
    w = np.full((env_rand.torus.n, 4, 1), weight)
    grid = 15.0 * 2.0 ** -np.arange(8.0)[::-1]
    res = run_ensemble(env_rand, 15.0, 8, MASTER, grid=grid, jump_weights=w)
    assert np.array_equal(res.jump_sums[..., 0], res.displacement * weight)
    assert (res.displacement == 0).any()
    for a in (res.displacement, res.jump_sums):
        assert not (np.signbit(a) & (a == 0)).any()


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
    # pooled in ascending order, each time finite and at least +0.0
    assert np.all(res.holding[:-1] <= res.holding[1:])
    assert np.isfinite(res.holding).all() and not np.signbit(res.holding).any()
    assert ks_exponential(res.holding) < 1.36 / np.sqrt(len(res.holding)) * 3


def test_each_holding_time_is_its_uniform_on_the_clock_of_the_site_it_leaves(env_rand):
    # the pooled sample is, bit for bit, (-log1p(-u) / rate) * rate for each
    # jump's first uniform u and the total rate of the site before the jump
    res = run_ensemble(env_rand, 16.0, 4, MASTER, x0=5, collect_holding=True)
    pooled = []
    for r in range(4):
        key = replica_key(MASTER, r)
        sites = simulate(env_rand, 5, 16.0, key).sites
        u = _generator(key).random(2 * (len(sites) - 1))
        rate = env_rand.total_rate[sites[:-1]]
        pooled.append((-np.log1p(-u[0::2]) / rate) * rate)
    assert np.sort(np.concatenate(pooled)).tobytes() == res.holding.tobytes()


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


class CountingGenerator:
    """Forwards to a numpy Generator and logs each buffer refill."""

    def __init__(self, gen, log):
        self._gen = gen
        self._log = log

    def random(self, *args, **kwargs):
        if "out" in kwargs:
            self._log.append(1)
        return self._gen.random(*args, **kwargs)


def test_default_width_refills_every_128_steps(monkeypatch):
    log = []
    real = walker._generator
    monkeypatch.setattr(walker, "_generator", lambda key: CountingGenerator(real(key), log))
    res = run_ensemble(SPREAD_ENV, 6.0, 7, MASTER, x0=4)
    # each replica is live for its jumps plus the step that ends it
    steps = int(res.n_jumps.max()) + 1
    assert steps > 256
    assert len(log) == 7 * math.ceil(steps / 128)  # each refill fills every row


@pytest.mark.skipif(not hasattr(walker.mmap, "MAP_PRIVATE"),
                    reason="the buffer is a mapping of its own only where mmap has MAP_PRIVATE")
def test_default_buffer_maps_256_uniforms_per_replica(monkeypatch, env_homog):
    mapped = []
    real = walker.mmap.mmap
    monkeypatch.setattr(walker.mmap, "mmap", lambda fileno, length, **flags:
                        mapped.append(length) or real(fileno, length, **flags))
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 1)
    tracemalloc.start()
    try:
        run_ensemble(env_homog, 1.0, 2000, MASTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the uniform buffer is the largest of the walk's mappings, and no malloc
    # block of its size is taken besides it
    assert max(mapped) == 2000 * 256 * 8
    assert peak < 2000 * 256 * 8
    # small arrays take no mapping, so many small walks kept alive hold no
    # more mappings than the system allows
    del mapped[:]
    run_ensemble(env_homog, 1.0, 2, MASTER)
    assert mapped == []
    # split over two workers, the caller maps only its own range's buffer;
    # the other range's buffer is mapped in the forked worker
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 2)
    run_ensemble(env_homog, 1.0, 2000, MASTER)
    assert max(mapped) == 1000 * 256 * 8


SPLIT_ENV = random_environment(2, 8, 7)
SPLIT_TABLES = mart.field_tables(SPLIT_ENV)


@pytest.mark.parametrize("R, kwargs", [
    pytest.param(60, {"block": 8}, id="plain"),
    pytest.param(60, {"grid": mart.dyadic_grid(8.0), "site_fields": SPLIT_TABLES[0],
                      "jump_weights": SPLIT_TABLES[1]}, id="decomposition"),
    pytest.param(60, {"x0": 5}, id="fixed-x0"),
    pytest.param(60, {"collect_holding": True}, id="holding"),
    pytest.param(7, {"grid": [0.5, 8.0], "site_fields": SPLIT_TABLES[0],
                     "jump_weights": SPLIT_TABLES[1], "collect_holding": True}, id="uneven"),
    # three workers split two replicas into the ranges 0..0, 0..1 and 1..2
    pytest.param(2, {}, id="empty-range"),
])
@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
def test_the_worker_count_changes_no_bit(monkeypatch, R, kwargs):
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(walker, "worker_count", lambda n_replicas: workers)
        runs[workers] = run_ensemble(SPLIT_ENV, 8.0, R, MASTER, **kwargs)
    one = runs[1]
    for res in (runs[2], runs[3]):
        for name in ("times", "displacement", "integrals", "jump_sums", "start_site",
                     "final_site", "n_jumps"):
            got, want = getattr(res, name), getattr(one, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        if one.holding is None:
            assert res.holding is None
        else:
            # the joined sample is sorted, so not even its order moves
            assert res.holding.shape == one.holding.shape
            assert res.holding.tobytes() == one.holding.tobytes()


def _env_with_two_dead_sites():
    # d=1 ring of 8 whose sites 2 and 6 have no positive total rate; the
    # edges into them keep their rates, so a walk from site 4 reaches either
    t = Torus(1, 8)
    s = np.ones((8, 2))
    s[2, :] = 0.0
    s[6, :] = -1.0
    return Environment(t, ConductanceField(t, s), b=FlowField.zero(t), h=None,
                       weak_ellipticity=False, meta={})


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
def test_an_absorbable_walk_runs_in_one_process(monkeypatch, workers):
    env = _env_with_two_dead_sites()
    real, forked = walker._fork, []
    monkeypatch.setattr(walker, "_fork", lambda *args: forked.append(args) or real(*args))
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: workers)
    # all four replicas reach site 2 first, at an earlier lockstep step, in
    # replica 2 or 3; replicas 0 and 1 alone reach site 6 first
    with pytest.raises(AbsorbingState) as all_four:
        run_ensemble(env, 100.0, 4, 2, x0=4)
    assert all_four.value.site == 2
    assert forked == []
    with pytest.raises(AbsorbingState) as alone:
        run_ensemble(env, 100.0, 2, 2, x0=4)
    assert alone.value.site == 6
    assert forked == []
    _no_child_left()


@pytest.mark.parametrize("error, replica", [
    pytest.param(RuntimeError("injected"), 0, id="caller"),
    pytest.param(KeyboardInterrupt("injected"), 0, id="caller-interrupt"),
    pytest.param(RuntimeError("injected"), 199, id="worker"),
    # sent back pickled, so it must rebuild from its fields
    pytest.param(DegenerateEdge(1, 2), 199, id="worker-package-error"),
])
@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
def test_an_error_in_one_range_reaps_every_worker(monkeypatch, error, replica):
    real = walker._generator

    def failing(key):
        if key & (SEED_LIMIT - 1) == replica:
            raise error
        return real(key)

    monkeypatch.setattr(walker, "_generator", failing)
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 3)
    with pytest.raises(type(error)) as raised:
        run_ensemble(SPLIT_ENV, 50.0, 200, MASTER)
    assert str(raised.value) == str(error) and vars(raised.value) == vars(error)
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
def test_a_worker_that_ends_without_a_result_is_named(monkeypatch):
    real, caller = walker._generator, os.getpid()

    def dying(key):
        # replica 150 is in the forked worker's range 100..199, never the caller's
        if key & (SEED_LIMIT - 1) == 150 and os.getpid() != caller:
            os._exit(3)
        return real(key)

    monkeypatch.setattr(walker, "_generator", dying)
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 2)
    with pytest.raises(RuntimeError, match=re.escape("the worker of replicas 100..199 "
                                                     "ended without a result")):
        run_ensemble(SPLIT_ENV, 50.0, 200, MASTER)
    _no_child_left()


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


def test_trajectory_jsonl_round_trip(tmp_path, env_rand, env_rand_file):
    path = tmp_path / "walk.jsonl"
    assert main(["simulate", "--env", env_rand_file, "--T", "8.0", "--seed", "11",
                 "--x0", "0", "--traj", str(path)]) == 0
    traj = simulate(env_rand, 0, 8.0, replica_key(11, 0))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "bistoch-traj" and header["version"] == 1
    assert header["x0"] == 0 and header["T"] == 8.0
    records = [json.loads(l) for l in lines[1:]]
    assert len(records) == traj.n_jumps
    assert [r["k"] for r in records] == list(traj.dirs)
    # the times are written as repr text, which reads back to the same floats
    assert [r["t"] for r in records] == traj.times.tolist()


def test_ensemble_summary_csv(tmp_path, env_rand, env_rand_file):
    path = tmp_path / "summary.csv"
    assert main(["simulate", "--env", env_rand_file, "--T", "5.0", "--replicas", "4",
                 "--seed", str(MASTER), "--x0", "0", "-o", str(path)]) == 0
    res = run_ensemble(env_rand, 5.0, 4, MASTER, x0=0)
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")  # every line ends in \n alone
    lines = data.decode().splitlines()
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


@pytest.mark.parametrize("block", [3, 0, -2, 256.0, np.float64(4.0), "4", True])
def test_buffer_width_must_be_a_positive_even_number(env_rand, block):
    with pytest.raises(ValueError, match="block must be a positive even number"):
        run_ensemble(env_rand, 1.0, 2, MASTER, block=block)


def test_the_last_grid_columns_are_a_walk_on_their_times(env_rand):
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    fine = run_ensemble(env_rand, 8.0, 40, 6, grid=grid)
    for k in (1, 2, 5):
        coarse = run_ensemble(env_rand, 8.0, 40, 6, grid=grid[-k:])
        assert fine.times[-k:].tobytes() == coarse.times.tobytes()
        tail = fine.displacement[:, -k:]
        assert tail.shape == coarse.displacement.shape
        assert tail.tobytes() == coarse.displacement.tobytes()
        for name in ("n_jumps", "start_site", "final_site"):
            assert getattr(fine, name).tobytes() == getattr(coarse, name).tobytes(), name


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf, True, np.bool_(True),
                               np.longdouble("1e-4000")], ids=repr)
def test_horizon_must_be_positive_and_finite(env_rand, T):
    # an infinite horizon with the grid [inf] would never finish, and a bool
    # one would run to T = 1.0 and be recorded as True
    with pytest.raises(ValueError, match="horizon"):
        run_ensemble(env_rand, T, 2, MASTER, grid=[T])
    with pytest.raises(ValueError, match="horizon"):
        simulate(env_rand, 0, T, seed=1)


# -- input rules ------------------------------------------------------------------

def test_a_float32_horizon_walks_as_its_value(env_rand):
    # compared in float32, the float64 bound of the rule overflowed with a RuntimeWarning
    got = run_ensemble(env_rand, np.float32(8.0), 3, MASTER)
    want = run_ensemble(env_rand, 8.0, 3, MASTER)
    assert got.times.dtype == float and got.times.tolist() == [8.0]
    assert np.array_equal(got.displacement, want.displacement)


# the public entry points that take a seed or a replica index
SEED_ENTRY_POINTS = {
    "random_environment": lambda env, seed: random_environment(2, 4, seed),
    "run_ensemble": lambda env, seed: run_ensemble(env, 2.0, 3, seed),
    "simulate": lambda env, seed: simulate(env, 0, 2.0, seed),
    "replica_key-master_seed": lambda env, seed: replica_key(seed, 0),
    "replica_key-replica": lambda env, seed: replica_key(0, seed),
}


# int() would make each of these seed 1, so it would walk seed 1's replicas
@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(1.0), np.bool_(True)], ids=repr)
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_a_seed_that_is_not_an_integer_is_rejected(env_rand, entry, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        SEED_ENTRY_POINTS[entry](env_rand, seed)


def test_numpy_integer_seeds_name_the_walks_of_python_ints(env_rand):
    env = random_environment(2, 4, np.uint64(3))
    assert env.meta["seed"] == 3 and type(env.meta["seed"]) is int
    assert np.array_equal(env.p_full, random_environment(2, 4, 3).p_full)
    traj = simulate(env_rand, 0, 2.0, np.int64(5))
    assert type(traj.seed) is int and type(traj.T) is float
    assert np.array_equal(traj.times, simulate(env_rand, 0, 2.0, 5).times)
    res = run_ensemble(env_rand, 2.0, 3, np.int64(7))
    assert np.array_equal(res.displacement, run_ensemble(env_rand, 2.0, 3, 7).displacement)
