"""Span tracer that wraps stochem's functions from outside the package.

Each target is wrapped at every name its callers look up: ``dynamics``
imports ``scalar_advect`` and friends by name, so those are wrapped as
``stochem.dynamics.scalar_advect``; ``transport_ito_correction`` calls
``transport_noise_modes`` as a module global, so that one is wrapped in
``stochem.noise``.  A span is (name, start, end, parent, bytes) and lives in
memory until the run ends.

The tracer is loud by design: a binding site that no longer exists, or a
target that sees no calls on a workload that should exercise it, raises
``TracerError`` so a refactor cannot hide work from the breakdown.  Every
original function is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# span name -> binding sites "module:attribute[.attribute]"
TARGETS = {
    "cli.parse_config": ("stochem.cli:parse_config",),
    "cli.build_simulation": ("stochem.cli:build_simulation",),
    "cli.write_diagnostics_csv": ("stochem.cli:write_diagnostics_csv",),
    "cli.write_snapshot": ("stochem.cli:write_snapshot",),
    "diagnostics.check_conditions": ("stochem.cli:check_conditions",),
    "diagnostics.estimate_k0": ("stochem.diagnostics:estimate_k0",),
    "diagnostics.record": ("stochem.diagnostics:record",),
    "diagnostics.tracker_update": (
        "stochem.diagnostics:EnergyTracker.update",),
    "experiments.ensemble": ("stochem.cli:ensemble",),
    # experiments.ensemble imports run from dynamics at call time
    "dynamics.run": ("stochem.cli:run", "stochem.dynamics:run"),
    "dynamics.step": ("stochem.dynamics:step",),
    "dynamics.stable_dt": ("stochem.dynamics:stable_dt",),
    "operators.scalar_advect": ("stochem.dynamics:scalar_advect",),
    "operators.chemotaxis_div": ("stochem.dynamics:chemotaxis_div",),
    "operators.convect_velocity": ("stochem.dynamics:convect_velocity",),
    "operators.buoyancy": ("stochem.dynamics:buoyancy",),
    "operators.helmholtz_project": ("stochem.dynamics:helmholtz_project",
                                    "stochem.cli:helmholtz_project"),
    "operators.divergence_residual": ("stochem.dynamics:divergence_residual",),
    "spectral.solve_scalar_diffusion": (
        "stochem._spectral:solve_scalar_diffusion",),
    "spectral.solve_velocity_diffusion": (
        "stochem._spectral:solve_velocity_diffusion",),
    "spectral.solve_poisson_neumann": (
        "stochem._spectral:solve_poisson_neumann",),
    "spectral.neumann_eigenvalues": ("stochem._spectral:neumann_eigenvalues",),
    "spectral.transform": ("stochem._spectral:dctn", "stochem._spectral:idctn",
                           "stochem._spectral:dst", "stochem._spectral:idst"),
    "noise.transport_noise_modes": ("stochem.noise:transport_noise_modes",),
    "noise.transport_ito_correction": (
        "stochem.noise:transport_ito_correction",),
    "noise.transport_hs_sq": ("stochem.noise:transport_hs_sq",),
    "noise.transport_noise_apply": ("stochem.dynamics:transport_noise_apply",),
    "noise.g_apply": ("stochem.dynamics:g_apply",),
    "noise.sample_increments": ("stochem.dynamics:sample_increments",),
    "grid.norm": ("stochem.cli:norm", "stochem.diagnostics:norm",
                  "stochem.operators:norm", "stochem.noise:norm",
                  "stochem.experiments:norm"),
    "grid.scalar_face_gradients": (
        "stochem.grid:scalar_face_gradients",
        "stochem.dynamics:scalar_face_gradients",
        "stochem.noise:scalar_face_gradients",
        "stochem.operators:scalar_face_gradients"),
}

# spans whose input and output array sizes are summed as computed bytes moved
BYTE_SPANS = ("spectral.transform",)


class TracerError(RuntimeError):
    pass


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise TracerError(f"trace target {site} no longer exists")
    return owner, attr


class Tracer:
    """Context manager: wraps every target on entry, restores on exit.

    ``spans`` holds (name index, start ns, end ns, parent span index or -1,
    bytes) tuples in call order, so a parent always precedes its children.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self._thread = threading.get_ident()

    def _wrap(self, fn, name_index: int, count_bytes: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        thread = self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                raise TracerError("traced call from a second thread; run the "
                                  "traced workload single-threaded")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, 0)
            if count_bytes:
                spans[index] = (name_index, start, end, parent,
                                args[0].nbytes + out.nbytes)
            return out
        return traced

    def __enter__(self):
        try:
            for i, name in enumerate(self.names):
                wrappers = {}   # attribute -> (original, wrapper)
                for site in TARGETS[name]:
                    owner, attr = _resolve(site)
                    original = vars(owner)[attr]
                    if attr not in wrappers:
                        wrappers[attr] = (original, self._wrap(
                            original, i, name in BYTE_SPANS))
                    elif wrappers[attr][0] is not original:
                        raise TracerError(f"binding sites of {name}.{attr} "
                                          f"hold different objects")
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrappers[attr][1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise TracerError(f"could not restore {owner.__name__}.{attr}")

    def call_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.names, 0)
        for span in self.spans:
            counts[self.names[span[0]]] += 1
        return counts

    def require_calls(self, idle: set[str]) -> None:
        """Raise unless every target outside ``idle`` saw at least one call."""
        unknown = idle - set(self.names)
        if unknown:
            raise TracerError(f"idle spans name no target: {sorted(unknown)}")
        counts = self.call_counts()
        silent = [n for n in self.names if n not in idle and counts[n] == 0]
        if silent:
            raise TracerError(f"trace targets saw no calls: {silent}")
