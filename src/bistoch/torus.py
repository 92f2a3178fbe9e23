"""Periodic torus geometry: site indexing, directions, neighbor tables.

Sites of {0,...,L-1}^d are enumerated in row-major (C) order, so site index
and coordinate tuple map to each other exactly as with numpy reshape/ravel.
The 2d unit steps are indexed 0..2d-1: index i is +e_i for i < d and
-e_{i-d} for i >= d.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def check_integer(value, what: str, least: int, limit=math.inf) -> int:
    """value as a Python int; ValueError unless it is an integer (not a bool) in [least, limit).

    numpy integers pass.  A float or a bool never stands for an integer, so
    1.5 or True cannot silently name the index 1.
    """
    if not (is_integer(value) and least <= value < limit):
        rule = (f" in [{least}, {limit})" if limit < math.inf
                else f" >= {least}" if least > -math.inf else "")
        raise ValueError(f"{what} must be an integer{rule}, got {value!r}")
    return int(value)


def is_integer(value) -> bool:
    """True for an int or a numpy integer; never for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for an int, a float, or a numpy integer or float; never for a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def is_finite(value) -> bool:
    """True for a number (see is_number) that a float holds finite.

    Exact for an int of any size, and false for NaN.  A numpy float is
    compared as a Python float: against an np.float32, numpy would cast the
    bound down to float32 and overflow.
    """
    if not is_number(value):
        return False
    if not isinstance(value, int):
        value = float(value)
    return -sys.float_info.max <= value <= sys.float_info.max


def check_positive(value, what: str) -> float:
    """value as a float; ValueError unless it is a positive finite number (not a bool)."""
    # float(value) > 0, not value > 0: a long double can be too small for a float
    if not (is_finite(value) and float(value) > 0):
        raise ValueError(f"{what} must be a positive finite number, got {value!r}")
    return float(value)


def site_count(d, L) -> int:
    """L**d as a Python int; ValueError unless d >= 1 and L >= 2 are integers and L**d < 2**63.

    No array indexes 2**63 sites.  A huge d or L is refused without forming
    L**d: L >= 2 gives L**d >= 2**63 once d >= 63, and L >= 2**63 at any d.
    """
    d = check_integer(d, "dimension d", 1)
    L = check_integer(L, "side length L", 2)
    n = L ** d if d < 63 and L < 1 << 63 else 1 << 63
    if n >= 1 << 63:
        raise ValueError(f"a torus of side L = {L} in dimension d = {d} has 2**63 sites or more")
    return n


class Torus:
    """Finite periodic lattice {0,...,L-1}^d with wrap-around neighbors."""

    def __init__(self, d: int, L: int):
        self.n = site_count(d, L)
        self.d, self.L = int(d), int(L)
        self.shape = (self.L,) * self.d
        self.ndir = 2 * self.d

        # directions[k] is the step vector of direction index k
        eye = np.eye(self.d, dtype=np.int64)
        self.directions = np.vstack([eye, -eye])
        self.axis_of = np.concatenate([np.arange(self.d), np.arange(self.d)])
        self.sign_of = np.concatenate([np.ones(self.d, dtype=np.int64),
                                       -np.ones(self.d, dtype=np.int64)])

        # nbr[x, k] = site index of x + step(k), wrapping modulo L
        grid = np.arange(self.n, dtype=np.int64).reshape(self.shape)
        cols = []
        for i in range(self.d):
            cols.append(np.roll(grid, -1, axis=i).ravel())
        for i in range(self.d):
            cols.append(np.roll(grid, 1, axis=i).ravel())
        self.nbr = np.stack(cols, axis=1)

        # plaquette pairs (i, j), i < j, in lexicographic order
        self.pairs = [(i, j) for i in range(self.d) for j in range(i + 1, self.d)]
        self.npairs = len(self.pairs)

    @property
    def opp(self) -> np.ndarray:
        """Vector of opposite-direction indices."""
        return np.concatenate([np.arange(self.d, 2 * self.d), np.arange(self.d)])

    def all_coords(self) -> np.ndarray:
        """(n, d) array of site coordinates in index order."""
        return np.stack(np.unravel_index(np.arange(self.n), self.shape), axis=1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Torus) and self.d == other.d and self.L == other.L

    def __hash__(self):
        return hash((self.d, self.L))

    def __repr__(self) -> str:
        return f"Torus(d={self.d}, L={self.L})"
