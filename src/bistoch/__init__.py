"""Doubly stochastic random environments on periodic lattices.

Construct divergence-free random walk environments from stream tensors,
simulate the quenched continuous-time walk exactly, decompose its path
into martingale and drift components with computable brackets, solve for
harmonic coordinates and effective diffusivity, and certify the structural
identities behind each construction.
"""

from .env import (ConductanceField, Environment, FlowField, StreamTensor,
                  ValidationReport, adjoint_environment, checkerboard_stream,
                  curl, env_from_dict, env_to_dict, homogeneous_environment,
                  load_env, make_conductance_stream_env,
                  make_totally_asymmetric_env, random_conductances,
                  random_environment, random_stream, save_env, validate)
from .errors import (AbsorbingState, BistochError, ConfigError,
                     DegenerateEdge, DenseCapExceeded, InconsistentRHS,
                     InsufficientReplicas, InvalidEnvironment, NoConvergence,
                     NonzeroFlux, NotDivergenceFree, NotPositiveDefinite,
                     Reducible, ZeroConductanceCrossing)
from .helmholtz import PoissonSolver, stream_from_flow
from .mart import (BracketFields, Diagnostics, DiffusivityBounds, DriftFields,
                   MartingaleEnsemble, bounds, bracket_fields, decompose,
                   drift_fields, dyadic_grid, harmonic_mean_conductance,
                   integrability_diagnostics, jump_weight_tables,
                   run_decomposition_ensemble)
from .corrector import (HarmonicSolution, OperatorAssembly, SpectralOperator,
                        assemble, build_spectral_operator,
                        effective_diffusivity, gradient_matrix,
                        riesz_certificate, solve_harmonic,
                        solve_harmonic_spectral)
from .report import ExperimentConfig, load_config, run_config
from .torus import Torus
from .walker import (EnsembleResult, Trajectory, replica_key, run_ensemble,
                     simulate)

__version__ = "0.1.0"
