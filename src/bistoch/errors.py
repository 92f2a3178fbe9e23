"""Exception types shared across the package."""

from __future__ import annotations

import copyreg


class BistochError(Exception):
    """Base class for all package errors.

    pickle and copy rebuild an error from its message (args) and its
    fields without calling __init__ again: a subclass's __init__ takes the
    fields, not the formatted message.  So the rebuilt error has the same
    type, fields and text, byte for byte.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DegenerateEdge(BistochError):
    """An edge carries zero flow where a one-way rate was required."""

    def __init__(self, site: int, direction: int):
        self.site = site
        self.direction = direction
        super().__init__(f"degenerate edge at site {site}, direction {direction}")


class AbsorbingState(BistochError):
    """The walk reached a site whose total jump rate is not positive."""

    def __init__(self, site: int):
        self.site = site
        super().__init__(f"absorbing state at site {site}: total rate is not positive")


class Reducible(BistochError):
    """The directed rate graph is not strongly connected."""


class ZeroConductanceCrossing(BistochError):
    """An edge with zero conductance carries a positive rate.

    The jump weights s_bar / s_k(x) of such an edge are undefined, so the
    weight tables reject it before any walk is simulated.
    """

    def __init__(self, site: int, direction: int):
        self.site = site
        self.direction = direction
        super().__init__(f"edge at site {site}, direction {direction} has zero conductance "
                         "but a positive rate")


class InsufficientReplicas(BistochError):
    """Too few replicas for the requested statistical test."""

    def __init__(self, got: int, need: int):
        self.got = got
        self.need = need
        super().__init__(f"need at least {need} replicas, got {got}")


class NotPositiveDefinite(BistochError):
    """The symmetric part is not positive definite on mean-zero functions."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"smallest mean-zero eigenvalue {eigenvalue:.3e} is not positive")


class DenseCapExceeded(BistochError):
    """A dense factorization was requested above the configured site cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"{n} sites exceeds dense cap {cap}")


class NoConvergence(BistochError):
    """An iterative solve stopped without reaching the target residual."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations, residual {residual:.3e}")


class InconsistentRHS(BistochError):
    """A right-hand side that must be mean-zero (of L g = f or Lap u = f) is not."""

    def __init__(self, mean: float):
        self.mean = mean
        super().__init__(f"right-hand side has nonzero mean {mean:.3e}")


class NonzeroFlux(BistochError):
    """A flow has a nonzero per-direction site average, so no periodic stream tensor exists."""

    def __init__(self, direction: int, value: float):
        self.direction = direction
        self.value = value
        super().__init__(f"nonzero flux {value:.3e} in direction {direction}")


class NotDivergenceFree(BistochError):
    """A flow field has nonzero divergence at some site."""

    def __init__(self, site: int, value: float):
        self.site = site
        self.value = value
        super().__init__(f"divergence {value:.3e} at site {site}")


class InvalidEnvironment(BistochError):
    """An environment (or serialized file) violates a structural invariant."""


class ConfigError(BistochError):
    """An experiment configuration is malformed; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
