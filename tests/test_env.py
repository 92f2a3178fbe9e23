import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistoch.env import (ConductanceField, Environment, FlowField, StreamTensor,
                         adjoint_environment, checkerboard_stream, curl,
                         edge_symmetry_residual,
                         env_from_dict, env_to_dict, homogeneous_environment,
                         integrability_diagnostics, load_env,
                         make_conductance_stream_env,
                         make_totally_asymmetric_env, random_environment,
                         save_env, validate)
from bistoch.errors import DegenerateEdge, InvalidEnvironment
from bistoch.torus import Torus


# -- curl of the checkerboard stream: frozen closed form ------------------------

def test_checkerboard_curl_values():
    t = Torus(2, 4)
    h = checkerboard_stream(t, 1.0)
    b = curl(h)
    coords = t.all_coords()
    parity = (-1.0) ** ((coords[:, 0] + coords[:, 1]) % 2)
    # b_{+e1} = 2c(-1)^(x1+x2), b_{+e2} = -2c(-1)^(x1+x2)
    assert np.array_equal(b.full[:, 0], 2.0 * parity)
    assert np.array_equal(b.full[:, 1], -2.0 * parity)
    assert np.max(np.abs(b.divergence())) == 0.0


def test_conductance_stream_rates_off_checkerboard():
    t = Torus(2, 4)
    h = checkerboard_stream(t, 1.0)
    s_tilde = ConductanceField.from_canonical(t, np.ones((t.n, 2)))
    env = make_conductance_stream_env(s_tilde, h)
    # s = s_tilde + |b| = 1 + 2 = 3 on every edge; p = s + b in {5, 1}
    assert np.array_equal(env.s.full, np.full((t.n, 4), 3.0))
    assert set(np.unique(env.p_full[:, 0])) == {1.0, 5.0}
    assert validate(env).passed
    assert np.array_equal(env.s.full - np.abs(env.b.full), s_tilde.full)


def test_totally_asymmetric_rates():
    t = Torus(2, 4)
    h = checkerboard_stream(t, 1.0)
    env = make_totally_asymmetric_env(h)
    # s = |b| = 2 everywhere, p = 2 b_+ in {0, 4}
    assert np.array_equal(env.s.full, np.full((t.n, 4), 2.0))
    even = np.ravel_multi_index((0, 0), t.shape)
    odd = np.ravel_multi_index((1, 0), t.shape)
    assert env.p_full[even].tolist() == [4.0, 0.0, 4.0, 0.0]
    assert env.p_full[odd].tolist() == [0.0, 4.0, 0.0, 4.0]
    assert validate(env).passed


def test_totally_asymmetric_rejects_dead_edges():
    t = Torus(2, 4)
    h = StreamTensor(t)  # zero stream -> zero rates everywhere
    with pytest.raises(DegenerateEdge):
        make_totally_asymmetric_env(h)


def test_d1_has_no_stream_plaquettes():
    with pytest.raises(DegenerateEdge):
        random_environment(1, 8, seed=0, generator="totally-asymmetric")


@pytest.mark.parametrize("shape", [(1, 4), (2, 3), (3, 2)])
def test_canonical_expansion_matches_the_per_axis_rule(shape):
    # the reference loop: the reverse orientation at x reads x - e_i
    t = Torus(*shape)
    can = np.random.default_rng(0).normal(size=(t.n, t.d))
    s = ConductanceField.from_canonical(t, can).full
    b = FlowField.from_canonical(t, can).full
    assert np.array_equal(s[:, :t.d], can) and np.array_equal(b[:, :t.d], can)
    for i in range(t.d):
        back = t.nbr[:, t.d + i]
        assert np.array_equal(s[:, t.d + i], can[back, i])
        assert np.array_equal(b[:, t.d + i], -can[back, i])
    assert edge_symmetry_residual(t, s) == 0.0
    assert edge_symmetry_residual(t, b, odd=True) == 0.0
    with pytest.raises(ValueError):
        FlowField.from_canonical(t, can[:, :0])


# -- structural validation ------------------------------------------------------

def test_validate_on_random_family():
    for seed in range(10):
        env = random_environment(2, 8, seed=seed)
        rep = validate(env)
        assert rep.passed, str(rep)
        assert rep.max_residual <= 1e-12


@given(st.integers(0, 10_000), st.sampled_from([(1, 4), (2, 4), (3, 2)]))
@settings(max_examples=25, deadline=None)
def test_validate_is_seed_independent(seed, shape):
    d, L = shape
    env = random_environment(d, L, seed=seed)
    assert validate(env).passed


def test_validate_flags_broken_conductance_symmetry(env_rand):
    s_bad = env_rand.s.full.copy()
    s_bad[0, 0] += 1e-6
    env = Environment(env_rand.torus, ConductanceField(env_rand.torus, s_bad),
                      b=env_rand.b)
    rep = validate(env)
    assert not rep.passed
    assert rep.residuals["conductance_symmetry"] > 1e-7


def test_validate_flags_nonzero_divergence(env_rand):
    b_bad = env_rand.b.full.copy()
    b_bad[0, 0] += 1e-6
    env = Environment(env_rand.torus, env_rand.s,
                      b=FlowField(env_rand.torus, b_bad))
    rep = validate(env)
    assert not rep.passed
    assert rep.residuals["divergence_free"] > 1e-7 or \
        rep.residuals["flow_antisymmetry"] > 1e-7


def test_validate_flags_domination_violation():
    t = Torus(2, 4)
    h = checkerboard_stream(t, 1.0)
    b = curl(h)
    s = ConductanceField(t, np.full((t.n, 4), 1.0))  # |b| = 2 > 1 = s
    env = Environment(t, s, b=b, weak_ellipticity=False)
    rep = validate(env)
    assert not rep.passed
    assert rep.residuals["domination"] > 0.5
    assert rep.residuals["rate_nonnegative"] > 0.5


def test_validate_flags_dead_edge_under_weak_ellipticity():
    t = Torus(1, 4)
    s = ConductanceField.from_canonical(t, np.array([[1.0], [0.0], [1.0], [1.0]]))
    env = Environment(t, s, weak_ellipticity=True)
    rep = validate(env)
    assert not rep.passed
    assert rep.residuals["weak_ellipticity"] == np.inf


def test_validate_flags_stream_symmetry_fault(monkeypatch):
    # a canonical tensor is symmetric by construction, so only a faulted
    # expansion can show that validate's stream residuals detect a break
    env = make_conductance_stream_env(
        ConductanceField.from_canonical(Torus(2, 4), np.full((16, 2), 3.0)),
        checkerboard_stream(Torus(2, 4), 1.0))
    assert validate(env).passed
    full = env.h.full().copy()
    full[5, 0, 1] += 1e-3
    monkeypatch.setattr(env.h, "full", lambda: full)
    rep = validate(env)
    assert not rep.passed
    assert rep.residuals["stream_pair_antisymmetry"] == pytest.approx(1e-3, rel=1e-9)
    assert not next(e for e in rep.entries if e.name == "stream_pair_antisymmetry").passed


# -- serialization ---------------------------------------------------------------

def test_json_round_trip_is_exact(tmp_path, env_rand):
    path = tmp_path / "env.json"
    save_env(env_rand, str(path))
    loaded = load_env(str(path))
    assert loaded.torus == env_rand.torus
    assert np.array_equal(loaded.s.full, env_rand.s.full)
    assert np.array_equal(loaded.h.canonical, env_rand.h.canonical)
    assert np.array_equal(loaded.b.full, env_rand.b.full)
    # a second save produces identical bytes
    path2 = tmp_path / "env2.json"
    save_env(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_flow_only_serialization(tmp_path):
    # an environment given by its flow alone stores b, not h
    t = Torus(2, 4)
    h = checkerboard_stream(t, 0.5)
    env = make_conductance_stream_env(
        ConductanceField.from_canonical(t, np.ones((t.n, 2))), h)
    flat = Environment(t, env.s, b=env.b)  # drop the tensor
    path = tmp_path / "flow.json"
    save_env(flat, str(path))
    data = json.loads(path.read_text())
    assert "b" in data and "h" not in data
    loaded = load_env(str(path))
    assert np.array_equal(loaded.b.full, flat.b.full)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(format="other"), "format"),
    (lambda d: d.update(version=99), "version"),
    (lambda d: d.update(s=d["s"][:-1]), "s"),
    (lambda d: d.update(b=[0.0] * 32), "b and h together"),
])
def test_loader_rejects_malformed(tmp_path, env_rand, mutate, field):
    data = env_to_dict(env_rand)
    mutate(data)
    with pytest.raises(InvalidEnvironment):
        env_from_dict(data)


def test_loader_rejects_invariant_violations(env_rand):
    # canonical storage rebuilds the symmetries, so only genuinely
    # inconsistent field values can fail: negative conductance breaks
    # domination, and a perturbed explicit flow breaks zero divergence
    data = env_to_dict(env_rand)
    data["s"][0] = -1.0
    with pytest.raises(InvalidEnvironment):
        env_from_dict(data)

    t = env_rand.torus
    flat = Environment(t, env_rand.s, b=env_rand.b)
    data = env_to_dict(flat)
    assert "b" in data
    data["b"][0] += 0.37
    with pytest.raises(InvalidEnvironment):
        env_from_dict(data)


# -- adjoint ----------------------------------------------------------------------

def test_adjoint_environment(env_rand):
    adj = adjoint_environment(env_rand)
    assert validate(adj).passed
    assert np.array_equal(adj.p_full, env_rand.s.full - env_rand.b.full)
    # reversal of the reversal is the original
    back = adjoint_environment(adj)
    assert np.array_equal(back.p_full, env_rand.p_full)


# -- diagnostics -------------------------------------------------------------------

def test_diagnostics_two_point_oracle(env_two_point):
    diag = integrability_diagnostics(env_two_point)
    # mean s = 2.5, mean 1/s = (1 + 0.25)/2 = 0.625
    assert np.allclose(diag.r_l2, [2.5, 2.5])
    assert np.allclose(diag.rinv_l2, [0.625, 0.625])
    assert diag.zero_edges == []


def test_diagnostics_flags_dead_edges():
    t = Torus(1, 4)
    s = ConductanceField.from_canonical(t, np.array([[1.0], [0.0], [1.0], [1.0]]))
    diag = integrability_diagnostics(Environment(t, s, weak_ellipticity=False))
    assert np.isinf(diag.rinv_l2).all()
    assert (1, 0) in diag.zero_edges


def test_homogeneous_bracket_scale():
    env = homogeneous_environment(3, 4, s=2.0)
    assert np.array_equal(env.p_full, np.full((64, 6), 2.0))
    assert validate(env).passed
