import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistoch.torus import Torus, site_count


@st.composite
def torus_and_site(draw):
    d = draw(st.integers(1, 3))
    L = draw(st.integers(2, 6))
    t = Torus(d, L)
    x = draw(st.integers(0, t.n - 1))
    return t, x


@given(torus_and_site())
@settings(max_examples=200, deadline=None)
def test_index_coords_bijection(tx):
    t, x = tx
    assert np.ravel_multi_index(tuple(t.all_coords()[x]), t.shape) == x


@given(torus_and_site())
@settings(max_examples=200, deadline=None)
def test_neighbor_matches_coordinate_arithmetic(tx):
    t, x = tx
    c = t.all_coords()[x]
    for k in range(t.ndir):
        want = tuple((c + t.directions[k]) % t.L)
        assert t.nbr[x, k] == np.ravel_multi_index(want, t.shape)


@given(torus_and_site())
@settings(max_examples=200, deadline=None)
def test_opposite_direction_round_trip(tx):
    t, x = tx
    for k in range(t.ndir):
        assert t.nbr[t.nbr[x, k], t.opp[k]] == x


def test_direction_indexing():
    t = Torus(3, 4)
    assert t.ndir == 6
    assert np.array_equal(t.directions[:3], np.eye(3, dtype=np.int64))
    assert np.array_equal(t.directions[3:], -np.eye(3, dtype=np.int64))
    assert list(t.axis_of) == [0, 1, 2, 0, 1, 2]
    assert list(t.sign_of) == [1, 1, 1, -1, -1, -1]
    for k in range(6):
        assert t.opp[k] == (k + 3) % 6


def test_row_major_enumeration():
    t = Torus(2, 3)
    # last coordinate varies fastest
    assert t.all_coords()[[0, 1, 3, 5]].tolist() == [[0, 0], [0, 1], [1, 0], [1, 2]]


def test_plaquette_pairs():
    assert Torus(1, 4).pairs == []
    assert Torus(2, 4).pairs == [(0, 1)]
    assert Torus(3, 4).pairs == [(0, 1), (0, 2), (1, 2)]
    assert Torus(3, 4).npairs == 3


def test_shift_matches_roll():
    t = Torus(2, 4)
    f = np.arange(t.n, dtype=float)
    grid = f.reshape(t.shape)
    # shift by +e_1 reads the value at x + e_1
    shifted = f[t.nbr[:, 0]].reshape(t.shape)
    assert np.array_equal(shifted, np.roll(grid, -1, axis=0))


def test_equality_and_hash():
    assert Torus(2, 4) == Torus(2, 4)
    assert Torus(2, 4) != Torus(2, 8)
    assert hash(Torus(2, 4)) == hash(Torus(2, 4))


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Torus(0, 4)
    with pytest.raises(ValueError):
        Torus(2, 1)


@pytest.mark.parametrize("d, L", [(2.5, 4), (2, 4.0), (True, 4), (2, np.float64(4.0)),
                                  ("2", 4), (2, np.bool_(True))],
                         ids=["d-fraction", "L-float", "d-bool", "L-numpy-float",
                              "d-string", "L-numpy-bool"])
def test_rejects_a_size_that_is_not_an_integer(d, L):
    with pytest.raises(ValueError, match="must be an integer"):
        Torus(d, L)


# 3037000499**2 < 2**63 <= 3037000500**2
@pytest.mark.parametrize("d, L, n", [(62, 2, 2**62), (2, 3037000499, 3037000499**2),
                                     (1, 2**63 - 1, 2**63 - 1), (63, 2, None), (40, 3, None),
                                     (2, 3037000500, None), (1, 2**63, None),
                                     (10**8, 3, None), (62, 2**63, None)])
def test_site_count_is_below_2_to_the_63(d, L, n):
    if n is not None:
        assert site_count(d, L) == n and type(site_count(np.int64(d), L)) is int
    else:
        with pytest.raises(ValueError, match=r"2\*\*63 sites or more"):
            site_count(d, L)


def test_accepts_numpy_integer_sizes():
    t = Torus(np.int64(2), np.int32(4))
    assert (type(t.d), type(t.L), t.n) == (int, int, 16)
    assert t == Torus(2, 4)
