"""Simulator for oxygen-driven bacterial suspensions in a stochastic fluid.

A 2D finite-volume / MAC solver for the coupled velocity-oxygen-density
system with transport noise on the oxygen and multiplicative forcing on the
velocity, instrumented so the provable structure (mass conservation,
positivity, the oxygen maximum principle, energy identities, entropy
boundedness, pathwise uniqueness) is measured on every run.
"""

from .grid import (Grid, ScalarField, VectorField, make_grid, inner_product,
                   norm, divergence, gradient)
from .operators import (AdvectionMode, helmholtz_project, laplacian_neumann,
                        stokes_apply, convect_velocity, scalar_advect,
                        chemotaxis_div, consumption, buoyancy)
from .noise import (TransportSigma, VelocityNoiseConfig, NoiseIncrement,
                    make_transport_sigma, check_sigma_assumptions,
                    transport_noise_apply, g_apply, sample_increments,
                    make_velocity_noise)
from .dynamics import (ConsumptionLaw, SimParams, State, StepReport,
                       linear_consumption, make_params, stable_dt, step, run)
from .diagnostics import (DiagnosticsRow, DiagnosticsSeries, GateReport,
                          total_mass, compute_kf, check_conditions,
                          entropy_functional, energy_identity_residual)
from .experiments import (EnsembleSpec, ConvergenceReport, twin_run,
                          convergence_dt, stratonovich_consistency, ensemble)

__version__ = "0.1.0"
