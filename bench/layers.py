"""Per-layer metrics from the spans of one traced child.

Self time is a span's duration minus the time its child spans cover.  Every
"per step" figure sums the spans inside ``dynamics.run`` and divides by the
number of ``dynamics.step`` spans, so on the ensemble it is per replica-step.
"""

from __future__ import annotations

import statistics

# (metric, unit, better) in report order; the mapping from each metric to
# the end-to-end metric it should move is in README.md
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.parse_config_ms", "ms", "lower"),
    ("cli.build_simulation_ms", "ms", "lower"),
    ("cli.write_outputs_ms", "ms", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("diagnostics.check_conditions_s", "s", "lower"),
    ("diagnostics.estimate_k0.calls", "count", "lower"),
    ("diagnostics.record.ms_per_call", "ms", "lower"),
    ("diagnostics.record.calls", "count", "lower"),
    ("diagnostics.tracker_update.ms_per_step", "ms", "lower"),
    ("dynamics.step.self_ms", "ms", "lower"),
    ("dynamics.step.ms_p50", "ms", "lower"),
    ("dynamics.step.ms_p90", "ms", "lower"),
    ("dynamics.stable_dt.ms_per_step", "ms", "lower"),
    ("dynamics.run.self_ms_per_step", "ms", "lower"),
]
_OPERATORS = ("scalar_advect", "chemotaxis_div", "convect_velocity",
              "buoyancy", "helmholtz_project", "divergence_residual")
for _op in _OPERATORS:
    PER_LAYER += [(f"operators.{_op}.ms_per_step", "ms", "lower"),
                  (f"operators.{_op}.calls_per_step", "count", "lower")]
PER_LAYER += [
    ("spectral.solve_scalar_diffusion.ms_per_step", "ms", "lower"),
    ("spectral.solve_velocity_diffusion.ms_per_step", "ms", "lower"),
    ("spectral.solve_poisson_neumann.ms_per_step", "ms", "lower"),
    ("spectral.neumann_eigenvalues.calls_per_step", "count", "lower"),
    ("spectral.transforms_per_step", "count", "lower"),
    ("spectral.bytes_moved_per_step.computed", "B", "lower"),
    ("noise.transport_noise_modes.calls_per_step", "count", "lower"),
    ("noise.transport_noise_modes.ms_per_step", "ms", "lower"),
    ("noise.transport_ito_correction.self_ms_per_step", "ms", "lower"),
    ("noise.transport_hs_sq.ms_per_step", "ms", "lower"),
    ("noise.transport_noise_apply.ms_per_step", "ms", "lower"),
    ("noise.g_apply.ms_per_step", "ms", "lower"),
    ("noise.sample_increments.ms_per_step", "ms", "lower"),
    ("noise.sample_increments.calls_per_step", "count", "lower"),
    ("grid.norm.calls_per_step", "count", "lower"),
    ("grid.norm.ms_per_step", "ms", "lower"),
    ("grid.scalar_face_gradients.calls_per_step", "count", "lower"),
    ("grid.scalar_face_gradients.ms_per_step", "ms", "lower"),
    ("experiments.ensemble.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# exact counts: two traced runs of one workload and seed must agree on these
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]

# (metric, span name, measure) for per-step figures inside dynamics.run
_PER_STEP = [
    ("diagnostics.tracker_update.ms_per_step", "diagnostics.tracker_update",
     "ms"),
    ("dynamics.stable_dt.ms_per_step", "dynamics.stable_dt", "ms"),
    ("dynamics.run.self_ms_per_step", "dynamics.run", "self_ms"),
    ("spectral.solve_scalar_diffusion.ms_per_step",
     "spectral.solve_scalar_diffusion", "ms"),
    ("spectral.solve_velocity_diffusion.ms_per_step",
     "spectral.solve_velocity_diffusion", "ms"),
    ("spectral.solve_poisson_neumann.ms_per_step",
     "spectral.solve_poisson_neumann", "ms"),
    ("spectral.neumann_eigenvalues.calls_per_step",
     "spectral.neumann_eigenvalues", "calls"),
    ("spectral.transforms_per_step", "spectral.transform", "calls"),
    ("spectral.bytes_moved_per_step.computed", "spectral.transform", "bytes"),
    ("noise.transport_noise_modes.calls_per_step",
     "noise.transport_noise_modes", "calls"),
    ("noise.transport_noise_modes.ms_per_step", "noise.transport_noise_modes",
     "ms"),
    ("noise.transport_ito_correction.self_ms_per_step",
     "noise.transport_ito_correction", "self_ms"),
    ("noise.transport_hs_sq.ms_per_step", "noise.transport_hs_sq", "ms"),
    ("noise.transport_noise_apply.ms_per_step", "noise.transport_noise_apply",
     "ms"),
    ("noise.g_apply.ms_per_step", "noise.g_apply", "ms"),
    ("noise.sample_increments.ms_per_step", "noise.sample_increments", "ms"),
    ("noise.sample_increments.calls_per_step", "noise.sample_increments",
     "calls"),
    ("grid.norm.calls_per_step", "grid.norm", "calls"),
    ("grid.norm.ms_per_step", "grid.norm", "ms"),
    ("grid.scalar_face_gradients.calls_per_step", "grid.scalar_face_gradients",
     "calls"),
    ("grid.scalar_face_gradients.ms_per_step", "grid.scalar_face_gradients",
     "ms"),
]
for _op in _OPERATORS:
    _PER_STEP += [(f"operators.{_op}.ms_per_step", f"operators.{_op}",
                   "self_ms" if _op == "helmholtz_project" else "ms"),
                  (f"operators.{_op}.calls_per_step", f"operators.{_op}",
                   "calls")]


class SpanError(ValueError):
    pass


def summarize(names: list[str], spans: list, main_end_ns: int,
              import_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced child, without trace.overhead_pct."""
    index = {name: i for i, name in enumerate(names)}
    n = len(spans)
    dur = [0] * n
    cover = [0] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        dur[i] = end - start
        if parent >= 0:
            if not (spans[parent][1] <= start and end <= spans[parent][2]):
                raise SpanError(f"span {i} ({names[spans[i][0]]}) is not "
                                f"inside its parent")
            cover[parent] += dur[i]
    self_ns = [d - c for d, c in zip(dur, cover)]

    run_id, step_id = index["dynamics.run"], index["dynamics.step"]
    in_run = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        in_run[i] = name == run_id or (parent >= 0 and in_run[parent])

    # self times along each step must add up to the step's inclusive time
    subtree_self = list(self_ns)
    for i in range(n - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            subtree_self[parent] += subtree_self[i]
    step_ns = []
    for i, span in enumerate(spans):
        if span[0] == step_id:
            if subtree_self[i] != dur[i]:
                raise SpanError(f"self times under step span {i} sum to "
                                f"{subtree_self[i]} ns, not {dur[i]} ns")
            step_ns.append(dur[i])
    steps = len(step_ns)
    if steps == 0:
        raise SpanError("no dynamics.step spans")

    calls = [0] * len(names)
    incl = [0] * len(names)
    excl = [0] * len(names)
    run_calls = [0] * len(names)
    run_incl = [0] * len(names)
    run_excl = [0] * len(names)
    run_bytes = [0] * len(names)
    for i, (name, _, _, _, b) in enumerate(spans):
        calls[name] += 1
        incl[name] += dur[i]
        excl[name] += self_ns[i]
        if in_run[i]:
            run_calls[name] += 1
            run_incl[name] += dur[i]
            run_excl[name] += self_ns[i]
            run_bytes[name] += b

    def total(name, measure="ms"):
        i = index[name]
        return {"ms": incl[i] / 1e6, "self_ms": excl[i] / 1e6,
                "calls": calls[i]}[measure]

    # the CLI's own integration call is the outermost run/ensemble span
    top = [s for s in spans if s[3] == -1
           and names[s[0]] in ("dynamics.run", "experiments.ensemble")]
    if len(top) != 1:
        raise SpanError(f"expected one top-level integration span, "
                        f"found {len(top)}")
    snapshot_in_run = sum(dur[i] for i, s in enumerate(spans)
                          if in_run[i] and names[s[0]] == "cli.write_snapshot")
    step_ms = [ns / 1e6 for ns in step_ns]

    out = {
        "cli.import_s": import_s,
        "cli.parse_config_ms": total("cli.parse_config"),
        "cli.build_simulation_ms": total("cli.build_simulation"),
        "cli.write_outputs_ms": (main_end_ns - top[0][2]
                                 + snapshot_in_run) / 1e6,
        "cli.bytes_written": bytes_written,
        "diagnostics.check_conditions_s":
            total("diagnostics.check_conditions") / 1e3,
        "diagnostics.estimate_k0.calls": total("diagnostics.estimate_k0",
                                               "calls"),
        "diagnostics.record.calls": total("diagnostics.record", "calls"),
        "diagnostics.record.ms_per_call": (total("diagnostics.record")
                                           / total("diagnostics.record",
                                                   "calls")),
        "dynamics.step.self_ms": excl[step_id] / 1e6 / steps,
        "dynamics.step.ms_p50": statistics.median(step_ms),
        "dynamics.step.ms_p90": (statistics.quantiles(
            step_ms, n=10, method="inclusive")[-1] if steps > 1
            else step_ms[0]),
        "experiments.ensemble.self_ms": total("experiments.ensemble",
                                              "self_ms"),
        "steps": steps,
        "steps_per_s": steps / ((top[0][2] - top[0][1]) / 1e9),
    }
    for metric, name, measure in _PER_STEP:
        i = index[name]
        value = {"ms": run_incl[i] / 1e6, "self_ms": run_excl[i] / 1e6,
                 "calls": run_calls[i], "bytes": run_bytes[i]}[measure]
        out[metric] = value / steps
    return out
