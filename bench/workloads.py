"""The benchmark's workloads: each turns (name, seed) into the INI config the
program reads, plus the CLI argument list that runs it.

The seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``); a
variant fixes the program's noise seed and jitters the position of the
initial cell blob.  Grid size, step size and step count never depend on the
seed, so every variant of a workload does the same amount of work, and the
reference final rows in ``reference.json`` cover every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 32

# traced span names (see tracer.TARGETS) that run only when noise is on
NOISE_SPANS = {"noise.transport_noise_modes", "noise.transport_ito_correction",
               "noise.transport_hs_sq", "noise.transport_noise_apply",
               "noise.g_apply"}


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    dt: float
    steps: int
    sample_every: int
    noise: bool                 # gamma = 0.1, amplitude = 0.02; else both 0
    replicas: int = 0           # > 0 runs `experiment ensemble`
    snapshot_every: int = 0     # > 0 adds the snapshot format

    @property
    def ensemble(self) -> bool:
        return self.replicas > 0

    @property
    def replica_steps(self) -> int:
        """Steps integrated by one invocation, summed over replicas."""
        return self.steps * max(self.replicas, 1)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Output files whose SHA-256 must repeat across runs of one seed."""
        if self.ensemble:
            return ("ensemble_stats.csv",)
        if self.snapshot_every:
            return ("diagnostics.csv", "final.cns")
        return ("diagnostics.csv",)

    def config(self, seed: int, outdir: Path) -> str:
        variant = seed % VARIANTS
        rng = random.Random(f"{self.name}:{variant}")
        cx = 0.4 + 0.2 * rng.random()
        cy = 0.4 + 0.2 * rng.random()
        formats = "csv,snapshot" if self.snapshot_every else "csv"
        return "\n".join([
            "[grid]", f"nx = {self.nx}", f"ny = {self.nx}",
            "[physics]", f"gamma = {0.1 if self.noise else 0.0!r}",
            "[noise]", f"amplitude = {0.02 if self.noise else 0.0!r}",
            "[time]", f"t_end = {self.steps * self.dt!r}", f"dt = {self.dt!r}",
            f"sample_every = {self.sample_every}", f"seed = {variant}",
            "[ic]", "n_recipe = gaussian_blob", f"n_center_x = {cx!r}",
            f"n_center_y = {cy!r}", "c_recipe = linear_gradient",
            "c_min = 0.05", "c_max = 0.3", "u_recipe = taylor_vortex_pair",
            "u_amplitude = 0.2",
            "[output]", f"directory = {outdir}", f"formats = {formats}",
            f"snapshot_every = {self.snapshot_every}",
            "[experiment]", f"replicas = {max(self.replicas, 1)}",
            "",
        ])

    def argv(self, config_path: Path) -> list[str]:
        """Arguments for ``stochem.cli.main``; the ensemble runs serially."""
        if self.ensemble:
            return ["experiment", "ensemble", "--config", str(config_path)]
        return ["run", "--config", str(config_path)]

    def idle_spans(self) -> set[str]:
        """Traced span names this workload legitimately never calls."""
        if self.ensemble:
            idle = {"diagnostics.check_conditions", "diagnostics.estimate_k0",
                    "cli.write_diagnostics_csv"}
        else:
            idle = {"experiments.ensemble"}
        if not self.snapshot_every:
            idle.add("cli.write_snapshot")
        if not self.noise:
            idle |= NOISE_SPANS
        return idle


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("plume64", nx=64, dt=1e-3, steps=400, sample_every=20,
             noise=True, snapshot_every=5),
    Workload("plume256", nx=256, dt=5e-4, steps=60, sample_every=20,
             noise=True),
    Workload("ensemble32", nx=32, dt=1e-3, steps=100, sample_every=10,
             noise=True, replicas=16),
    Workload("quiet128", nx=128, dt=1e-3, steps=150, sample_every=1,
             noise=False),
)}
