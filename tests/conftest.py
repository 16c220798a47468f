from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

# every property test draws the same examples on every run, and none
# replays examples saved by an earlier run
settings.register_profile("reproducible", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reproducible")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from stochem.dynamics import CONSUMPTION_LAWS, SimParams, State
from stochem.grid import (ScalarField, VectorField, scalar_face_gradients,
                          zeros_vector)
from stochem.noise import make_transport_sigma, make_velocity_noise
from stochem.operators import helmholtz_project

from oracles import zero_transport_sigma, zeros_scalar


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


class Call(NamedTuple):
    name: str
    args: tuple
    kwargs: dict


def record_calls(monkeypatch, name, *modules, log=None) -> list[Call]:
    """Wrap the function ``name`` at each of ``modules``, its binding sites,
    so that every call appends a Call to ``log`` and then runs the original;
    returns ``log``, a new list unless one is given, which lets several
    functions share one log in the order of their calls."""
    log = [] if log is None else log
    original = getattr(modules[0], name)

    def recorded(*args, **kwargs):
        log.append(Call(name, args, kwargs))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, recorded)
    return log


def random_scalar(grid, rng, positive=False, scale=1.0):
    v = rng.standard_normal((grid.nx, grid.ny)) * scale
    if positive:
        v = np.abs(v) + 0.1 * scale
    return ScalarField(grid, v)


def random_vector(grid, rng, scale=1.0):
    v = VectorField(grid, rng.standard_normal((grid.nx + 1, grid.ny)) * scale,
                    rng.standard_normal((grid.nx, grid.ny + 1)) * scale)
    v.u_x[0, :] = v.u_x[-1, :] = 0.0
    v.u_y[:, 0] = v.u_y[:, -1] = 0.0
    return v


def random_solenoidal(grid, rng, scale=1.0):
    return helmholtz_project(random_vector(grid, rng, scale))


def default_params(grid, *, eta=1.0, mu=1.0, delta=1.0, chi=1.0, gamma=0.0,
                   amplitude=0.0, k_modes=4, cutoff=1, phi_values=None,
                   f=None):
    if phi_values is None:
        phi = zeros_scalar(grid)
    else:
        phi = ScalarField(grid, phi_values)
    if gamma == 0.0 and min(grid.nx, grid.ny) < 8:
        sigma = zero_transport_sigma(grid)
    else:
        sigma = make_transport_sigma(grid, cutoff)
    return SimParams(eta=eta, mu=mu, delta=delta, chi=chi, gamma=gamma,
                     phi_grad=scalar_face_gradients(phi),
                     f=f or CONSUMPTION_LAWS["linear"],
                     vnoise=make_velocity_noise(grid, k_modes, amplitude),
                     sigma=sigma)


def quiescent_state(grid, n=1.0, c=0.0):
    return State(u=zeros_vector(grid),
                 c=ScalarField(grid, np.full((grid.nx, grid.ny), float(c))),
                 n=ScalarField(grid, np.full((grid.nx, grid.ny), float(n))),
                 t=0.0)
