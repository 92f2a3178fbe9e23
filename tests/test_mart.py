import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from bistoch import mart
from bistoch.cli import main
from bistoch.env import (ConductanceField, Environment, FlowField,
                         StreamTensor, adjoint_environment,
                         homogeneous_environment,
                         make_conductance_stream_env, random_environment)
from bistoch.errors import InsufficientReplicas, ZeroConductanceCrossing
from bistoch.torus import Torus
from bistoch.walker import replica_key, run_ensemble, simulate


@pytest.fixture(scope="module")
def walk_homog():
    """A walk with the decomposition observers and its holding times."""
    env = homogeneous_environment(2, 8)
    site_table, jump_table = mart.field_tables(env)
    return run_ensemble(env, 30.0, 1280, 3, grid=mart.dyadic_grid(30.0),
                        site_fields=site_table, jump_weights=jump_table,
                        collect_holding=True)


@pytest.fixture(scope="module")
def ens_homog(walk_homog):
    return mart.decomposition(walk_homog)


@pytest.fixture(scope="module")
def ens_rand(env_rand):
    return mart.run_decomposition_ensemble(env_rand, 20.0, 1280, 17)


# -- drift fields ---------------------------------------------------------------


def shift_drifts(env) -> tuple:
    """phi and psi read off the canonical edge arrays: drift_fields' oracle.

    phi_i(x) = s_{e_i}(x) - s_{e_i}(x - e_i) and psi_i(x) = b_{e_i}(x) + b_{e_i}(x - e_i):
    the step from x to x - e_i crosses the edge from x - e_i to x backwards,
    where s is symmetric and b antisymmetric.  A mix-up of the storage
    conventions between the full and canonical arrays shows here.
    """
    t = env.torus
    phi = np.empty((t.n, t.d))
    psi = np.empty((t.n, t.d))
    for i in range(t.d):
        back = t.nbr[:, t.d + i]  # site x - e_i
        phi[:, i] = env.s.canonical[:, i] - env.s.canonical[back, i]
        psi[:, i] = env.b.canonical[:, i] + env.b.canonical[back, i]
    return phi, psi


def test_drift_methods_agree(env_rand):
    f = mart.drift_fields(env_rand)
    phi, psi = shift_drifts(env_rand)
    assert np.allclose(f.phi, phi, atol=1e-14)
    assert np.allclose(f.psi, psi, atol=1e-14)


def test_drift_site_means_vanish():
    for seed in range(4):
        env = random_environment(2, 8, seed=seed)
        f = mart.drift_fields(env)
        assert np.max(np.abs(f.phi.mean(axis=0))) < 1e-14
        assert np.max(np.abs(f.psi.mean(axis=0))) < 1e-14


def test_compensator_mean_can_be_nonzero():
    # uneven stream: two plaquettes only, unit conductances
    t4 = Torus(2, 4)
    can = np.zeros((t4.n, t4.npairs))
    can[np.ravel_multi_index((0, 0), t4.shape), 0] = 1.0
    can[np.ravel_multi_index((0, 1), t4.shape), 0] = 2.0
    env = make_conductance_stream_env(
        ConductanceField.from_canonical(t4, np.ones((t4.n, 2))),
        StreamTensor(t4, can))
    f = mart.drift_fields(env)
    assert np.abs(f.alpha.mean(axis=0)).max() > 1e-4
    # beta absorbs it: alpha + beta = phi + psi always
    assert np.allclose(f.alpha + f.beta, f.phi + f.psi, atol=1e-14)


def test_harmonic_mean_two_point(env_two_point):
    s_bar = mart.harmonic_mean_conductance(env_two_point)
    assert abs(s_bar[0] - 1.6) < 1e-14


def test_harmonic_mean_homog(env_homog):
    assert np.allclose(mart.harmonic_mean_conductance(env_homog), [1.0, 1.0])


def test_harmonic_mean_dead_edge():
    t = Torus(2, 4)
    s_can = np.ones((t.n, 2))
    s_can[3, 0] = 0.0
    env = Environment(t, ConductanceField.from_canonical(t, s_can))
    s_bar = mart.harmonic_mean_conductance(env)
    assert s_bar[0] == 0.0 and s_bar[1] == 1.0


# -- jump weights ---------------------------------------------------------------


def test_jump_weights_partition_unity(env_rand):
    w = mart.jump_weight_tables(env_rand)
    assert np.allclose(w["z"] + w["y"], 1.0, atol=1e-15)
    assert np.all(w["z"] > 0)


def test_homogeneous_weights_all_z(env_homog):
    w = mart.jump_weight_tables(env_homog)
    assert np.array_equal(w["z"], np.ones_like(w["z"]))
    assert np.abs(w["y"]).max() == 0.0


def test_zero_conductance_crossing_rejected():
    t = Torus(1, 4)
    s = np.ones((4, 2))
    s[0, 0] = 0.0
    s[1, 1] = 0.0  # symmetric partner of the same edge
    b = np.zeros((4, 2))
    b[0, 0] = 0.5
    b[1, 1] = -0.5
    env = Environment(t, ConductanceField(t, s), b=FlowField(t, b))
    with pytest.raises(ZeroConductanceCrossing) as err:
        mart.jump_weight_tables(env)
    assert str(err.value) == ("edge at site 0, direction 0 has zero conductance "
                              "but a positive rate")


# -- bounds ----------------------------------------------------------------------


def test_bounds_homogeneous(env_homog):
    bd = mart.bounds(env_homog)
    assert np.array_equal(bd.lower, np.diag([2.0, 2.0]))
    assert bd.upper_trace == 4.0
    assert np.trace(bd.lower) == 4.0


def test_bounds_two_point(env_two_point):
    bd = mart.bounds(env_two_point)
    assert abs(bd.lower[0, 0] - 3.2) < 1e-14
    assert abs(bd.upper_trace - 5.0) < 1e-14


def test_bounds_check_verdicts(env_homog):
    bd = mart.bounds(env_homog)
    ok = bd.check(np.diag([3.0, 0.9]))
    assert not ok["lower_ok"]        # 0.9 < 2 on the second axis
    assert ok["upper_ok"]            # trace 3.9 <= 4
    good = bd.check(np.diag([2.0, 2.0]))
    assert good["lower_ok"] and good["upper_ok"]
    assert good["matrix_gap"] == 0.0 and good["trace_gap"] == 0.0


# -- bracket fields ---------------------------------------------------------------


@pytest.mark.parametrize("d,L,seed", [(2, 8, 100), (2, 8, 103), (3, 4, 1)])
def test_bracket_averages_hit_closed_forms(d, L, seed):
    env = random_environment(d, L, seed=seed)
    res = mart.bracket_fields(env).average_residuals()
    assert max(res.values()) < 1e-13


def test_bracket_targets_match_bounds(env_rand):
    bf = mart.bracket_fields(env_rand)
    bd = mart.bounds(env_rand)
    assert np.allclose(bf.zz.mean(axis=0), bd.lower, atol=1e-13)
    assert abs(np.trace(bf.mm.mean(axis=0)) - bd.upper_trace) < 1e-13


# -- path decomposition ------------------------------------------------------------


def test_dyadic_grid_values():
    g = mart.dyadic_grid(64.0, levels=4)
    assert np.array_equal(g, [8.0, 16.0, 32.0, 64.0])


def test_single_path_identities(env_rand):
    traj = simulate(env_rand, 5, 40.0, 99)
    path = mart.decompose(env_rand, traj)
    r = path.identity_residuals()
    assert r["three_way"] < 1e-11 and r["four_way"] < 1e-11
    assert np.array_equal(path.X[-1], traj.final_displacement.astype(float))


def test_decompose_grid_validation(env_rand):
    traj = simulate(env_rand, 0, 10.0, 1)
    with pytest.raises(ValueError):
        mart.decompose(env_rand, traj, grid=[5.0, 9.0])  # must end at T
    with pytest.raises(ValueError):
        mart.decompose(env_rand, traj, grid=[8.0, 4.0, 10.0])


def test_adjoint_flips_antisymmetric_part(env_rand):
    traj = simulate(env_rand, 5, 40.0, 99)
    path = mart.decompose(env_rand, traj)
    patha = mart.decompose(adjoint_environment(env_rand), traj)
    ra = patha.identity_residuals()
    assert ra["three_way"] < 1e-11 and ra["four_way"] < 1e-11
    assert np.array_equal(patha.I, path.I)
    assert np.array_equal(patha.J, -path.J)


def _replay_by_loop(env, traj, grid):
    """Per-event replay of one path: the reference for mart.decompose."""
    site_table, jump_table = mart.field_tables(env)
    t_ = env.torus
    G = len(grid)
    acc = np.zeros(site_table.shape[1])
    jsum = np.zeros((t_.d, jump_table.shape[2]))
    pos = np.zeros(t_.d)
    integrals = np.zeros((G,) + acc.shape)
    jump_sums = np.zeros((G,) + jsum.shape)
    X = np.zeros((G, t_.d))
    gi, now = 0, 0.0
    events = list(zip(traj.times, traj.dirs, traj.sites[:-1]))
    for t_next, k, site in events + [(traj.T, -1, traj.sites[-1])]:
        while gi < G and grid[gi] <= t_next:  # snapshot before the jump
            integrals[gi] = acc + site_table[site] * (grid[gi] - now)
            jump_sums[gi] = jsum
            X[gi] = pos
            gi += 1
        if k < 0:
            break
        acc += site_table[site] * (t_next - now)
        jsum[t_.axis_of[k]] += jump_table[site, k] * float(t_.sign_of[k])
        pos[t_.axis_of[k]] += t_.sign_of[k]
        now = t_next
    return mart._components(X, integrals, jump_sums)


@pytest.mark.parametrize("d,L", [(1, 8), (2, 6), (3, 4)])
def test_decompose_matches_event_loop_bitwise(d, L):
    base = random_environment(d, L, seed=d)
    T = 12.0
    for env in (base, adjoint_environment(base), homogeneous_environment(d, L)):
        for seed in range(4):
            traj = simulate(env, seed, T, seed)
            at_jump = [traj.times[traj.n_jumps // 2], T]
            for grid in (mart.dyadic_grid(T), np.array(at_jump)):
                path = mart.decompose(env, traj, grid=grid)
                for name, want in _replay_by_loop(env, traj, grid).items():
                    assert np.array_equal(getattr(path, name), want), name


def test_grid_time_at_a_jump_snapshots_before_it(env_rand):
    # a jump at exactly a grid time lands after that grid time's snapshot,
    # in the single-path replay and in the lockstep engine alike
    seed = replica_key(23, 0)
    traj = simulate(env_rand, 0, 20.0, seed)
    j = traj.n_jumps // 2
    grid = [traj.times[j], 20.0]
    before = traj.displacement[j].astype(float)
    assert not np.array_equal(before, traj.displacement[j + 1])
    path = mart.decompose(env_rand, traj, grid=grid)
    assert np.array_equal(path.X[0], before)
    ens = mart.run_decomposition_ensemble(env_rand, 20.0, 1, 23, grid=grid, x0=0)
    assert np.array_equal(ens.X[0, 0], before)
    for name in ("M", "I", "J", "Z", "Y"):
        assert np.allclose(getattr(ens, name)[0], getattr(path, name), atol=1e-12)


def test_ensemble_identities(ens_rand):
    r = ens_rand.identity_residuals()
    assert r["three_way"] < 1e-10 and r["four_way"] < 1e-10


def test_ensemble_replica_matches_standalone(env_rand):
    ens = mart.run_decomposition_ensemble(env_rand, 50.0, 8, 11, x0=0)
    p3 = mart.decompose(env_rand, simulate(env_rand, 0, 50.0, replica_key(11, 3)))
    for name in ("X", "M", "I", "J", "Z", "Y"):
        a = getattr(ens, name)[3]
        b = getattr(p3, name)
        assert np.allclose(a, b, atol=1e-9), (name, np.abs(a - b).max())


def test_decomposition_names_the_missing_observers(env_rand):
    # a walk without the observers has no columns to split into M, I, J, Z, Y
    with pytest.raises(ValueError, match="no field_tables observers"):
        mart.decomposition(run_ensemble(env_rand, 2.0, 3, 1))


def test_homogeneous_degeneracies(ens_homog):
    # no gradients anywhere: I = J = Y = 0 and Z = M exactly
    assert np.abs(ens_homog.I).max() == 0.0
    assert np.abs(ens_homog.J).max() == 0.0
    assert np.abs(ens_homog.Y).max() == 0.0
    assert np.array_equal(ens_homog.Z, ens_homog.M)


def test_decomposition_csv(tmp_path, env_rand, env_rand_file):
    path = tmp_path / "mart.csv"
    assert main(["decompose", "--env", env_rand_file, "--T", "8.0", "--replicas", "3",
                 "--seed", "5", "--grid", "4.0,8.0", "--x0", "0", "-o", str(path)]) == 0
    ens = mart.run_decomposition_ensemble(env_rand, 8.0, 3, 5,
                                          grid=[4.0, 8.0], x0=0)
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")  # every line ends in \n alone
    lines = data.decode().splitlines()
    assert lines[0] == ("replica,t," + ",".join(
        f"{nm}_{i}" for nm in ("X", "M", "I", "J", "Z", "Y") for i in (1, 2)))
    assert len(lines) == 1 + 3 * 2
    row = lines[1].split(",")
    assert int(row[0]) == 0 and float(row[1]) == 4.0
    assert float(row[2]) == ens.X[0, 0, 0]  # repr round-trips exactly


# -- statistics --------------------------------------------------------------------


def test_batch_mean_interval_exact_mean():
    iv = mart.batch_mean_interval(np.arange(64, dtype=float))
    assert iv.mean == 31.5
    assert iv.half_width == mart.Z_99 * iv.se


def test_batch_mean_interval_covers_truth():
    rng = np.random.default_rng(8)
    iv = mart.batch_mean_interval(rng.normal(loc=2.0, size=640))
    assert iv.contains(2.0)
    assert not iv.contains(5.0)


def test_batch_mean_interval_needs_replicas():
    with pytest.raises(InsufficientReplicas):
        mart.batch_mean_interval(np.ones(63))


def test_variance_rate_homogeneous(ens_homog):
    # E|X(t)|^2 = 4t for the rate-one homogeneous walk
    vr = mart.variance_rate(ens_homog)
    assert abs(vr.mean - 4.0) < 5 * vr.se + 0.05


def test_growth_slope_exact_power_law():
    times = np.array([1.0, 2.0, 4.0, 8.0])
    assert abs(mart.growth_slope(times, times ** 2) - 2.0) < 1e-12


@pytest.mark.parametrize("times", [[], [8.0]])
def test_growth_slope_needs_two_times(times):
    # a line through one point has no slope; numpy would warn and fit one
    with pytest.raises(ValueError, match="at least two times"):
        mart.growth_slope(times, [1.0] * len(times))


def test_growth_slope_of_a_zero_moment_is_nan_without_a_warning():
    # no replica has moved by the first time; a RuntimeWarning fails the test
    assert np.isnan(mart.growth_slope([1.0, 2.0, 4.0], [0.0, 1.0, 2.0]))


def test_second_moment_curve_shapes(ens_homog):
    m2, se = mart.second_moment_curve(ens_homog.X)
    assert m2.shape == se.shape == ens_homog.times.shape
    assert np.all(np.diff(m2) > 0)


def test_ks_exponential_on_holding(walk_homog):
    ks = mart.ks_exponential(walk_homog.holding)
    assert ks < 3 * 1.36 / np.sqrt(len(walk_homog.holding))
    with pytest.raises(ValueError, match="collect_holding=True"):
        mart.ks_exponential(None)
    with pytest.raises(ValueError, match="no replica jumped before T"):
        mart.ks_exponential(np.empty(0))


def test_ks_gaussian_accepts_and_rejects():
    rng = np.random.default_rng(4)
    assert mart.ks_gaussian(rng.normal(size=4000)) < 0.03
    assert mart.ks_gaussian(rng.exponential(size=4000)) > 0.2
    assert mart.ks_gaussian(np.zeros(100)) == 1.0


def _scipy_ks(x, dist, *args) -> float:
    return float(scipy.stats.kstest(x, dist, args=args).statistic)


def test_ks_statistics_are_scipys_to_the_bit(walk_homog):
    rng = np.random.default_rng(8)
    holding = walk_homog.holding
    assert mart.ks_exponential(holding).hex() == _scipy_ks(holding, "expon").hex()
    samples = {
        "lattice X, heavy ties": walk_homog.displacement[:, -1, 0],
        "signed zeros": np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 2.0]),
        "n=1": np.array([0.7]),
        "n=2": np.array([-0.3, 1.1]),
        "continuous": rng.normal(size=999),
    }
    for name, x in samples.items():
        sd = x.std() if len(x) > 1 else 1.0
        got = mart._ks_distance(np.asarray(x), lambda v: scipy.stats.norm.cdf(v, 0.0, sd))
        assert got.hex() == _scipy_ks(x, "norm", 0.0, sd).hex(), name
        if len(x) > 1:
            assert mart.ks_gaussian(x).hex() == got.hex(), name
        nonneg = np.abs(x) if name != "signed zeros" else np.where(x > 0, x, x * 0.0)
        assert (mart.ks_exponential(nonneg).hex()
                == _scipy_ks(nonneg, "expon").hex()), name

    # three full strips of the sweep and a partial fourth, drawn as uniforms
    # and mapped through each CDF's inverse, so both CDFs see the same shape
    n = 3 * mart.KS_BLOCK + 17
    tie = np.sort(rng.uniform(size=n))
    tie[mart.KS_BLOCK - 600:mart.KS_BLOCK + 600] = tie[mart.KS_BLOCK - 600]
    with_nan = rng.uniform(size=n)
    with_nan[12345] = np.nan
    strips = {
        "maximum in the last strip": (rng.uniform(0.0, 0.5, size=n), 3 * mart.KS_BLOCK, n),
        "tie across a strip boundary": (rng.permutation(tie), mart.KS_BLOCK - 600,
                                        mart.KS_BLOCK + 600),
        "NaN": (with_nan, None, None),
    }
    cdfs = {"expon": (lambda u: -np.log1p(-u), mart._expon_cdf),
            "norm": (scipy.special.ndtri, lambda v: mart._normal_cdf(v, 1.0))}
    for name, (u, lo, hi) in strips.items():
        for dist, (inverse, cdf) in cdfs.items():
            x = inverse(u)
            if lo is not None:
                assert lo <= _statistic_index(x, cdf) < hi, (name, dist)
            got = mart._ks_distance(x, cdf)
            assert got.hex() == _scipy_ks(x, dist).hex(), (name, dist)


def _statistic_index(x, cdf) -> int:
    """Where in the sorted x the one-pass KS statistic is attained."""
    x = np.sort(x)
    n = len(x)
    d_plus = np.arange(1.0, n + 1) / n - cdf(x)
    d_minus = cdf(x) - np.arange(0.0, n) / n
    return int(np.argmax(d_plus if d_plus.max() > d_minus.max() else d_minus))


def test_ks_sweep_holds_the_sorted_copy_and_a_few_strips():
    x = np.random.default_rng(9).exponential(size=4 * mart.KS_BLOCK)
    tracemalloc.start()
    try:
        mart.ks_exponential(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one pass over the whole sample held five sample-sized arrays at once
    assert peak < x.nbytes + 6 * mart.KS_BLOCK * x.itemsize


def test_ks_reads_ascending_input_as_its_sorted_copy():
    rng = np.random.default_rng(10)
    x = rng.exponential(size=2 * mart.KS_BLOCK + 5)
    x[:40] = 0.0
    x[:40:3] = -0.0
    with_nan = x.copy()
    with_nan[777] = np.nan
    for name, shuffled in {"finite": x, "NaN": with_nan}.items():
        shuffled = rng.permutation(shuffled)
        ascending = np.sort(shuffled)
        # ascending too, with every zero's sign flipped from np.sort's
        resigned = ascending.copy()
        zeros = np.flatnonzero(ascending == 0.0)
        resigned[zeros] = -ascending[zeros]
        assert len(zeros) == 40
        for ks in (mart.ks_exponential, mart.ks_gaussian):
            want = ks(shuffled).hex()
            assert ks(ascending).hex() == want and ks(resigned).hex() == want, (name, ks)


def test_ks_exponential_reads_an_ascending_sample_without_a_copy():
    # the size of the README config's pooled holding times
    x = np.sort(np.random.default_rng(11).exponential(size=750_000))
    tracemalloc.start()
    try:
        mart.ks_exponential(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_at_times_selects_the_columns_a_coarser_run_samples(env_rand):
    # the decomposition of a selection is that of a walk sampled on it alone
    site_table, jump_table = mart.field_tables(env_rand)
    fine = run_ensemble(env_rand, 8.0, 40, 6, grid=mart.dyadic_grid(8.0), x0=3,
                        site_fields=site_table, jump_weights=jump_table)
    for levels in (1, 4, 5, 8):
        grid = mart.dyadic_grid(8.0, levels)
        coarse = mart.run_decomposition_ensemble(env_rand, 8.0, 40, 6, grid=grid, x0=3)
        got = mart.decomposition(fine.at_times(grid))
        assert got.times.tobytes() == coarse.times.tobytes()
        for name in ("X", "M", "I", "J", "Z", "Y"):
            assert getattr(got, name).tobytes() == getattr(coarse, name).tobytes(), name
            assert getattr(got, name).shape == getattr(coarse, name).shape
        assert np.array_equal(got.n_jumps, coarse.n_jumps)
        assert np.array_equal(got.final_site, coarse.final_site)


def test_final_site_chisquare(ens_homog):
    p = mart.final_site_chisquare(ens_homog.final_site, 64)
    assert 1e-4 < p <= 1.0


# edge values of the CDF kernels: signed zeros, negatives, the smallest
# subnormal, the expm1 underflow edge, the largest finite scale, infinities, NaN
CDF_EDGES = np.array([0.0, -0.0, -1.0, -2.5, -1e308, 5e-324, 1e-300, 1e-10,
                      0.3, 40.0, 745.2, 1e308, np.inf, -np.inf, np.nan])


def test_expon_cdf_kernel_is_scipys_to_the_bit():
    rng = np.random.default_rng(21)
    for x in (CDF_EDGES, rng.exponential(size=5000), -rng.exponential(size=50)):
        got = mart._expon_cdf(x)
        assert got.tobytes() == scipy.stats.expon.cdf(x).tobytes()
    signs = np.signbit(mart._expon_cdf(np.array([-0.0, -1.0, -np.inf])))
    assert not signs.any()


@pytest.mark.parametrize("sd", [1.0, 0.37, 2.75, 1e-300, 1e300])
def test_normal_cdf_kernel_is_scipys_to_the_bit(sd):
    rng = np.random.default_rng(22)
    with np.errstate(over="ignore", under="ignore"):
        for x in (CDF_EDGES, rng.normal(scale=3.0, size=5000)):
            got = mart._normal_cdf(x, sd)
            assert got.tobytes() == scipy.stats.norm.cdf(x, 0.0, sd).tobytes()


@pytest.mark.parametrize("counts", [
    np.full(64, 10),                               # uniform: statistic 0, p-value 1
    np.array([0, 0, 5, 3, 0, 9, 0, 4]),           # with zeros
    np.array([40, 31, 22, 19, 18, 12, 9, 7, 5]),  # skewed
    np.array([3, 9]),                             # n = 2
    np.random.default_rng(23).poisson(5.0, 4096),  # n = 4096
], ids=["uniform", "zeros", "skewed", "n2", "n4096"])
def test_final_site_chisquare_is_scipys_to_the_bit(counts):
    final_site = np.repeat(np.arange(len(counts)), counts)
    got = mart.final_site_chisquare(final_site, len(counts))
    assert got.hex() == float(scipy.stats.chisquare(counts).pvalue).hex()


def test_zz_matrix_tracks_lower_bound(ens_rand, env_rand):
    est, se = mart.zz_matrix(ens_rand)
    want = mart.bounds(env_rand).lower
    assert np.all(np.abs(est - want) <= 5 * se + 1e-12)


def test_orthogonality_report(ens_rand):
    rep = mart.orthogonality_report(ens_rand)
    for iv in rep.values():
        assert iv.se > 0
        assert abs(iv.mean) < 6 * iv.se + 0.05


def test_statistics_replica_floor(env_rand):
    small = mart.run_decomposition_ensemble(env_rand, 5.0, 50, 1)
    with pytest.raises(InsufficientReplicas):
        mart.zz_matrix(small)
    with pytest.raises(InsufficientReplicas):
        mart.orthogonality_report(small)
