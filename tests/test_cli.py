import builtins
import contextlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochem import dynamics, experiments
from stochem.cli import (_SCHEMA, ConfigError, SnapshotError, build_params,
                         build_simulation, main, parse_config, read_snapshot,
                         write_snapshot)
from stochem.dynamics import (CONSUMPTION_LAWS, State, run, stack_states,
                              time_grid)
from stochem.experiments import perturbed_copy
from stochem.grid import (Grid, ScalarField, VectorField, make_grid,
                          zeros_vector)

from oracles import zeros_scalar


MINIMAL = "[grid]\nnx = 16\nny = 16\n"


def test_minimal_document_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["grid"]["nx"] == 16
    assert cfg["physics"]["eta"] == 1.0
    assert cfg["time"]["sample_every"] == 10
    params, state = build_simulation(cfg)
    assert params.grid.nx == 16
    assert float(state.n.values.min()) > 0.0


def test_empty_document_is_valid():
    params, state = build_simulation(parse_config(""))
    assert params.grid.nx == 64


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match=r"unknown key \[grid\] nz"):
        parse_config("[grid]\nnz = 4\n")
    with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
        parse_config("[extra]\nfoo = 1\n")


def test_validation_names_key_and_constraint():
    with pytest.raises(ConfigError, match=r"\[physics\] delta = -1.*> 0"):
        parse_config("[physics]\ndelta = -1\n")
    with pytest.raises(ConfigError, match=r"\[grid\] nx.*as int"):
        parse_config("[grid]\nnx = four\n")
    with pytest.raises(ConfigError, match=r"\[physics\] phi_kind = bogus"):
        parse_config("[physics]\nphi_kind = bogus\n")


_FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key, spec in keys.items() if spec[0] is float]


@pytest.mark.parametrize("raw", ["inf", "-inf"])
@pytest.mark.parametrize("section,key", _FLOAT_KEYS)
def test_non_finite_float_rejected(section, key, raw):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = .*finite"):
        parse_config(f"[{section}]\n{key} = {raw}\n")


def test_xi_resolution_from_config():
    cfg = parse_config("[physics]\nmu = 1.0\ngamma = 0.2\n")
    params, _ = build_simulation(cfg)
    assert params.xi == pytest.approx(1.02, abs=1e-15)


def test_comments_and_inline_comments():
    cfg = parse_config("# top comment\n[grid]\nnx = 32  # inline\n")
    assert cfg["grid"]["nx"] == 32


# ----------------------------------------------------------------- snapshots

def _random_state(nx, ny, rng):
    g = make_grid(nx, ny, 1.25, 0.75)
    return State(u=VectorField(g, rng.standard_normal((nx + 1, ny)),
                               rng.standard_normal((nx, ny + 1))),
                 c=ScalarField(g, rng.standard_normal((nx, ny))),
                 n=ScalarField(g, rng.standard_normal((nx, ny))),
                 t=float(rng.uniform(0, 3)))


def test_snapshot_roundtrip_bitwise(tmp_path, rng):
    state = _random_state(12, 7, rng)
    path = tmp_path / "state.cns"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.t == state.t
    assert np.array_equal(back.n.values, state.n.values)
    assert np.array_equal(back.c.values, state.c.values)
    assert np.array_equal(back.u.u_x, state.u.u_x)
    assert np.array_equal(back.u.u_y, state.u.u_y)
    assert back.n.grid == state.n.grid


def test_snapshot_size_formula(tmp_path, rng):
    state = _random_state(4, 4, rng)
    path = tmp_path / "tiny.cns"
    write_snapshot(state, path)
    assert path.stat().st_size == 4 + 8 + 24 + 8 * (16 + 16 + 20 + 20)


def test_snapshot_truncation_and_magic(tmp_path, rng):
    state = _random_state(6, 6, rng)
    path = tmp_path / "state.cns"
    write_snapshot(state, path)
    blob = path.read_bytes()
    (tmp_path / "trunc.cns").write_bytes(blob[:-8])
    with pytest.raises(SnapshotError, match="size"):
        read_snapshot(tmp_path / "trunc.cns")
    (tmp_path / "bad.cns").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(tmp_path / "bad.cns")


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 31), nx=st.integers(4, 12), ny=st.integers(4, 12))
def test_snapshot_roundtrip_property(tmp_path_factory, seed, nx, ny):
    rng = np.random.default_rng(seed)
    state = _random_state(nx, ny, rng)
    path = tmp_path_factory.mktemp("snap") / "s.cns"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert np.array_equal(back.u.u_y, state.u.u_y)
    assert np.array_equal(back.n.values, state.n.values)


# ----------------------------------------------------------------- commands

REFERENCE = """
[grid]
nx = 24
ny = 24
[physics]
gamma = 0.08
chi = 1.0
[noise]
amplitude = 0.02
[time]
t_end = 0.02
dt = 1e-3
sample_every = 5
seed = 31
[ic]
u_amplitude = 0.15
[experiment]
levels = 3
replicas = 2
"""


def _write_cfg(tmp_path, text=REFERENCE, outdir=None):
    text = text + f"\n[output]\ndirectory = {outdir}\n" if outdir else text
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


def test_cmd_run_writes_deterministic_csv(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    csv2 = (out2 / "diagnostics.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == ("step,t,mass_n,min_n,max_c,l2_u,h1_c,entropy,"
                      "energy_residual,clip_count,div_residual")
    assert len(csv1.decode().splitlines()) == 1 + 5   # initial row + 4 samples


def test_cmd_run_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
    assert (out1 / "diagnostics.csv").read_bytes() != \
        (out2 / "diagnostics.csv").read_bytes()


def test_cmd_run_refuses_inadmissible_without_flag(tmp_path, capsys):
    bad = REFERENCE.replace("[ic]", "[ic]\nc_max = 0.5")
    cfg = _write_cfg(tmp_path, bad)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "refusing to run" in err
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--allow-inadmissible"])
    assert code == 0


def test_cmd_check_params_exit_codes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["check-params", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "K_f = 1.5" in out
    assert "admissible |c0|_inf bound = 0.408248" in out
    bad = _write_cfg(tmp_path, REFERENCE.replace("[ic]", "[ic]\nc_max = 0.5"))
    assert main(["check-params", "--config", str(bad)]) == 1


def test_cmd_run_snapshots(tmp_path):
    text = REFERENCE + "\n[output]\nformats = csv,snapshot\nsnapshot_every = 2\n"
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.cns"))
    assert snaps and (out / "final.cns").exists()
    state = read_snapshot(out / "final.cns")
    assert state.t == pytest.approx(0.02, abs=1e-12)


def test_cmd_snapshot_info(tmp_path, capsys, rng):
    state = _random_state(8, 8, rng)
    path = tmp_path / "s.cns"
    write_snapshot(state, path)
    assert main(["snapshot-info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "grid: 8 x 8" in out


def _printed_floats(stdout: str) -> dict:
    """The experiment summary lines "label: value ..." with their values
    parsed as plain floats; a numpy repr such as np.float64(...) fails."""
    assert "np." not in stdout
    values = {}
    for line in stdout.splitlines():
        label, _, rest = line.partition(": ")
        values[label] = float(rest.split()[0].rstrip(";"))
    return values


def test_cmd_experiment_twin_and_convergence(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "exp"
    assert main(["experiment", "twin", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = (out / "twin.csv").read_text().splitlines()
    assert lines[0] == "t,separation"
    assert len(lines) > 2
    printed = _printed_floats(capsys.readouterr().out)
    assert set(printed) == {"fitted growth rate", "max separation"}

    text = REFERENCE.replace("t_end = 0.02", "t_end = 0.016")
    cfg2 = _write_cfg(tmp_path, text)
    assert main(["experiment", "convergence", "--config", str(cfg2),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["slope"] > 0.4
    assert len(payload["errors"]) == 2
    assert _printed_floats(capsys.readouterr().out) == {
        "fitted strong-order slope": pytest.approx(payload["slope"], abs=1e-4)}


def test_cmd_experiment_ensemble(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ens"
    assert main(["experiment", "ensemble", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = (out / "ensemble_stats.csv").read_text().splitlines()
    assert lines[0].startswith("t,mass_n_mean,mass_n_var,mass_n_max")
    assert len(lines) == 1 + 5


def test_text_outputs_translate_no_newline(tmp_path, monkeypatch):
    # every text file a command writes is opened with newline="\n", so a
    # rerun is byte-identical on any platform, not only where the platform
    # newline is "\n"
    written = {}
    real_open = io.open

    def recording(file, mode="r", buffering=-1, encoding=None, errors=None,
                  newline=None, closefd=True, opener=None):
        if "w" in mode and "b" not in mode:
            written[Path(file).name] = newline
        return real_open(file, mode, buffering, encoding, errors, newline,
                         closefd, opener)

    cfg = _write_cfg(tmp_path, "[grid]\nnx = 8\nny = 8\n[time]\n"
                     "t_end = 0.004\n[experiment]\nlevels = 3\nreplicas = 2\n")
    monkeypatch.setattr(builtins, "open", recording)
    monkeypatch.setattr(io, "open", recording)
    for command in ("run", "experiment twin", "experiment convergence",
                    "experiment stratonovich", "experiment ensemble"):
        assert main([*command.split(), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert written == dict.fromkeys(
        ["diagnostics.csv", "twin.csv", "convergence.json",
         "stratonovich.json", "ensemble_stats.csv"], "\n")


def test_cmd_experiment_stratonovich(tmp_path, capsys):
    text = REFERENCE.replace("gamma = 0.08", "gamma = 0.15") \
                    .replace("nx = 24", "nx = 32").replace("ny = 24", "ny = 32") \
                    .replace("t_end = 0.02", "t_end = 0.024") \
                    .replace("dt = 1e-3", "dt = 7.5e-4")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "strat"
    assert main(["experiment", "stratonovich", "--config", str(cfg),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "stratonovich.json").read_text())
    assert len(payload["drift_corrected"]) == 3
    assert payload["reference_gap"] > 0.0
    assert _printed_floats(capsys.readouterr().out) == {
        "finest-level drift gap": payload["gap"][-1]}


def test_convergence_t_end_is_judged_as_run_judges_its_landing_step(
        tmp_path, capsys):
    # 5e-13 past ten finest steps, run's schedule takes a landing step that
    # no finest increment covers: the study refuses it.  5e-13 short of them
    # it takes none, and the study is the one over exactly ten steps
    def study(t_end):
        cfg = _write_cfg(tmp_path, "[grid]\nnx = 8\nny = 8\n"
                                   f"[time]\nt_end = {t_end}\ndt = 1e-3\n"
                                   "[experiment]\nlevels = 3\n")
        out = tmp_path / t_end
        code = main(["experiment", "convergence", "--config", str(cfg),
                     "--out", str(out)])
        return code, out / "convergence.json"

    code, _ = study("0.0100000000005")
    assert code == 2
    assert capsys.readouterr().err == ("error: t_end=0.0100000000005 is not "
                                       "a multiple of the finest dt\n")
    code, short = study("0.0099999999995")
    assert code == 0
    code, exact = study("0.01")
    assert code == 0
    assert short.read_bytes() == exact.read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["run"], ["check-params"],
                                     ["experiment", "ensemble"]],
                         ids=["run", "check-params", "experiment"])
def test_threads_flag_is_unknown(tmp_path, capsys, command):
    # the ensemble sizes its own pool; no command takes a thread count
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--out", "x"]],
                         ids=["seed", "out"])
def test_check_params_takes_only_config(tmp_path, capsys, flag):
    # the gate reads neither the seed nor an output directory
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["check-params", "--config", str(cfg), *flag])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err)


def test_long_schedule_is_accepted():
    # the schema refuses a schedule only past sys.maxsize steps, and the CLI
    # has no wall-time bound: 4e9 steps at 16^2 pass the config and build
    cfg = parse_config("[grid]\nnx = 16\nny = 16\n"
                       "[time]\nt_end = 0.004\ndt = 1e-12\n")
    params, initial = build_simulation(cfg)
    assert params.grid.nx == 16 and initial.t == 0.0
    assert len(time_grid(cfg["time"]["t_end"], cfg["time"]["dt"])) == 4e9


def _child_env() -> dict:
    """The environment of a child interpreter that imports this stochem."""
    import stochem
    src = str(Path(stochem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


_STRATONOVICH_SMALL = ("[grid]\nnx = {n}\nny = {n}\n"
                       "[noise]\nsigma_cutoff_width = {w}\n"
                       "[time]\nt_end = 0.004\n"
                       "[experiment]\nlevels = 3\nreplicas = 2\n")


def test_stratonovich_runs_on_the_smallest_window(tmp_path, capsys):
    # 7 cells leave one cell past the 3-cell margin on each side at width 1
    cfg = _write_cfg(tmp_path, _STRATONOVICH_SMALL.format(n=7, w=1))
    assert main(["experiment", "stratonovich", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert _printed_floats(capsys.readouterr().out)[
        "finest-level drift gap"] > 0.0


def test_import_loads_no_iterative_solver():
    code = ("import sys, stochem.cli; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env())
    assert done.returncode == 0


def test_snapshot_with_extreme_grid_length_exits_2(tmp_path, capsys, rng):
    path = tmp_path / "s.cns"
    write_snapshot(_random_state(8, 8, rng), path)
    blob = bytearray(path.read_bytes())
    blob[12:20] = np.float64(1e-300).tobytes()   # lx
    path.write_bytes(bytes(blob))
    assert main(["snapshot-info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "lx = 1e-300" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
@settings(max_examples=50)
@given(nx=st.integers(5, 12), ny=st.integers(5, 12),
       gamma=st.floats(0.0, 0.1), amplitude=st.floats(1e-3, 0.1),
       gain=st.floats(0.0, 1.0), k_modes=st.integers(1, 8),
       law=st.sampled_from(["linear", "saturating"]),
       steps=st.integers(1, 5), landing=st.booleans(),
       sample_every=st.integers(1, 3), lanes=st.integers(2, 4),
       seed=st.integers(0, 2 ** 31), replica=st.integers(0, 100),
       per_chunk=st.integers(1, 3))
def test_lanes_and_workers_leave_results_bitwise(
        tmp_path_factory, nx, ny, gamma, amplitude, gain, k_modes, law, steps,
        landing, sample_every, lanes, seed, replica, per_chunk):
    # noisy configs (the CLI needs 5 cells a side for the transport cutoff
    # ring): every lane of a batched run is its own unbatched run, and an
    # ensemble writes the same bytes in one chunk, in several chunks on the
    # calling thread, in several chunks on two worker threads, and in one
    # chunk per CPU on two processes
    t_end = (steps - 0.5 * landing) * 1e-3
    text = (f"[grid]\nnx = {nx}\nny = {ny}\n"
            f"[physics]\ngamma = {gamma!r}\nf_name = {law}\n"
            f"[noise]\nk_modes = {k_modes}\namplitude = {amplitude!r}\n"
            f"multiplicative_gain = {gain!r}\n"
            f"[time]\nt_end = {t_end!r}\ndt = 1e-3\n"
            f"sample_every = {sample_every}\nseed = {seed}\n"
            f"[experiment]\nreplicas = {lanes}\n")
    params, initial = build_simulation(parse_config(text))
    states = [perturbed_copy(initial, 1e-3 * i) for i in range(lanes)]
    final, series = run(stack_states(states), params, t_end, 1e-3, seed=seed,
                        sample_every=sample_every, replica=replica)
    for i, state in enumerate(states):
        alone_final, alone = run(state, params, t_end, 1e-3, seed=seed,
                                 sample_every=sample_every,
                                 replica=replica + i)
        assert series[i] == alone
        for got, want in ((final.n.values[i], alone_final.n.values),
                          (final.c.values[i], alone_final.c.values),
                          (final.u.u_x[i], alone_final.u.u_x),
                          (final.u.u_y[i], alone_final.u.u_y)):
            assert got.tobytes() == want.tobytes()

    tmp = tmp_path_factory.mktemp("lanes")
    cfg = _write_cfg(tmp, text)
    per_chunk = min(per_chunk, lanes - 1)   # so at least two chunks

    def ensemble_csv(cpus, batch_cells, forking=False):
        out = tmp / f"out-{cpus}-{batch_cells}-{forking}"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "usable_cpus", lambda: cpus)
            mp.setattr(experiments, "BATCH_CELLS", batch_cells)
            mp.setattr(experiments, "fork_safe", lambda: forking)
            mp.setattr(experiments, "FORK_CELLS", nx * ny)   # 1 replica
            assert main(["experiment", "ensemble", "--config", str(cfg),
                         "--out", str(out)]) == 0
        return (out / "ensemble_stats.csv").read_bytes()

    whole = ensemble_csv(1, experiments.BATCH_CELLS)
    assert ensemble_csv(1, nx * ny * per_chunk) == whole
    assert ensemble_csv(2, nx * ny * per_chunk) == whole
    assert ensemble_csv(2, experiments.BATCH_CELLS, forking=True) == whole


# ------------------------------------------------------- the CLI contract

# values that probe each key type's edges: zero, negatives, tiny, huge and
# non-finite floats; zero, negative and beyond-64-bit integers
_EXTREME = {
    float: ["0", "-0.0", "-1", "5e-324", "1e-300", "1e-12", "0.5", "1", "3",
            "1e12", "1e160", "1e300", "1.7976931348623157e308", "-1e300",
            "nan", "inf"],
    int: ["0", "-1", "1", "2", "7", "1000000", str(2 ** 64), str(-2 ** 63)],
}
# the keys that set a command's work take only values that keep the grid
# at 4^2-8^2, the schedule at most 4 steps and an ensemble small, or that
# the config rejects
_SIZED = {("grid", "nx"): ["4", "3", "0", "-1"],
          ("grid", "ny"): ["4", "3", "0", "-1"],
          ("time", "t_end"): ["0", "-1", "1e-12", "1e300"],
          ("time", "dt"): ["0", "-1", "5e-324", "1e300"],
          ("experiment", "replicas"): ["0", "-1"]}
_STRINGS = {"f_name": sorted(CONSUMPTION_LAWS),
            "phi_kind": ["linear_y", "linear_x", "zero"],
            "n_recipe": ["uniform", "gaussian_blob"],
            "c_recipe": ["uniform", "linear_gradient", "cosine_mode"],
            "u_recipe": ["zero", "taylor_vortex_pair"],
            "formats": ["csv", "snapshot", "csv,snapshot", ""]}


def _extreme_values(section, key):
    typ, default = _SCHEMA[section][key][:2]
    if (section, key) in _SIZED:
        return st.sampled_from(_SIZED[section, key])
    if typ is str:
        return st.sampled_from(_STRINGS.get(key, [default]) + ["bogus"])
    return st.sampled_from(_EXTREME[typ])


@st.composite
def _cli_configs(draw):
    """A config text from cli._SCHEMA: a 5^2-8^2 grid, at most 4 steps, up
    to three keys at extreme values and sometimes an unknown key or
    section."""
    dt = draw(st.sampled_from([1e-3, 2.5e-4, 0.05]))
    cfg = {"grid": {"nx": draw(st.sampled_from("8765")),
                    "ny": draw(st.sampled_from("8765"))},
           "time": {"dt": repr(dt), "t_end": repr(
               dt * draw(st.sampled_from([4, 2.5, 2, 1, 0.5, 0])))},
           "experiment": {"replicas": draw(st.sampled_from("123")),
                          "levels": draw(st.sampled_from("34"))}}
    keys = st.sampled_from([(section, key) for section in _SCHEMA
                            for key in _SCHEMA[section]])
    for section, key in draw(st.lists(keys, max_size=3, unique=True)):
        cfg.setdefault(section, {})[key] = draw(_extreme_values(section, key))
    unknown = draw(st.sampled_from([None] * 6 + [("grid", "nz"),
                                                 ("extra", "foo")]))
    if unknown is not None:
        cfg.setdefault(unknown[0], {})[unknown[1]] = "1"
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                              for key, value in body.items())
                   for section, body in cfg.items())


_ALL = ("check-params", "run", "run --allow-inadmissible", "experiment twin",
        "experiment convergence", "experiment stratonovich",
        "experiment ensemble")
_CONTRACT_COMMANDS = [c.split() for c in _ALL] + [["snapshot-info"]]


def _finite_outputs(outdir: Path) -> None:
    """Every number in the CSV and JSON outputs of ``outdir`` is finite."""
    for path in outdir.glob("*.csv"):
        rows = path.read_text().splitlines()[1:]
        cells = [float(cell) for row in rows for cell in row.split(",")]
        assert cells and all(math.isfinite(x) for x in cells), path.name
    for path in outdir.glob("*.json"):
        def finite(x):
            if isinstance(x, dict):
                return all(finite(v) for v in x.values())
            if isinstance(x, list):
                return all(finite(v) for v in x)
            return math.isfinite(x)
        assert finite(json.loads(path.read_text())), path.name


# a config refused before its command starts
_REFUSED = ("error: [", "error: unknown ", "error: malformed ",
            "refusing to run: ")


def _contract(tmp: Path, argv: list[str],
              text: str = "") -> tuple[int, str, str]:
    """Run main(argv) in process, with its output directory at tmp / "out",
    assert the contract every command keeps on every input and return the
    exit code, stdout and stderr.

    The contract: no exception, no argparse exit and no warning (each is
    recorded, none ignored); an exit code of 0 to 3; nothing on stderr at
    exit 0, only "GATE FAILURE:" lines at exit 1, and one "error:" line at
    exit 2 or 3 unless the run refuses the gate.  A refused config makes no
    output directory, a failed command leaves no file in it but the run's
    snapshots, and a successful one writes only finite numbers."""
    outdir = tmp / "out"
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:   # or argparse's exit
            pytest.fail(f"{argv[0]} raised {exc!r} on:\n{text}")
    stderr = err.getvalue()
    context = f"{argv}:\n{text}\nstderr: {stderr}"
    assert code in (0, 1, 2, 3), context
    assert not caught, f"{[str(w.message) for w in caught]} {context}"
    lines = stderr.splitlines()
    if code == 0:
        assert not lines, context
    elif code == 1:   # the run's invariant gate; check-params prints none
        assert all(x.startswith("GATE FAILURE: ") for x in lines), context
    elif not (code == 2 and stderr.startswith("refusing to run: ")):
        assert len(lines) == 1 and lines[0].startswith("error: "), context
    if stderr.startswith(_REFUSED):
        assert not outdir.exists(), context
    if code in (2, 3) and outdir.exists():
        assert all(p.suffix == ".cns" for p in outdir.iterdir()), context
    if code == 0 and outdir.exists():
        _finite_outputs(outdir)
    return code, out.getvalue(), stderr


def _config_argv(tmp: Path, command: list[str],
                 text: str | bytes) -> list[str]:
    """Write the config to tmp / "c.ini" and return the command with it as
    its config and, but for check-params, tmp / "out" as its output
    directory; a command that names its own paths, with {tmp} standing for
    tmp, is returned as named."""
    path = tmp / "c.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if any("{tmp}" in arg for arg in command):
        return [arg.format(tmp=tmp) for arg in command]
    argv = [*command, "--config", str(path)]
    return argv if command[0] == "check-params" else [
        *argv, "--out", str(tmp / "out")]


def _row(id, command, text, code, err=None, out=None):
    """One pinned input: the command, the config text (or bytes), the exit
    code (or the set of codes allowed) and the stderr and stdout, in which
    "..." stands for any text; None pins nothing beyond the contract."""
    return pytest.param(command.split(), text, code, err, out, id=id)


def _matches(text: str, pattern: str) -> bool:
    """Whether text is pattern, each "..." in it standing for any text."""
    return re.fullmatch(".*".join(map(re.escape, pattern.split("..."))),
                        text, re.DOTALL) is not None


def _check_row(tmp_path, command, text, code, err, out):
    got, stdout, stderr = _contract(
        tmp_path, _config_argv(tmp_path, command, text), text)
    assert got in ({code} if isinstance(code, int) else code), stderr
    assert err is None or _matches(stderr, err), stderr
    assert out is None or _matches(stdout, out), stdout


def _pinned(*rows):
    """A test that runs each row through _contract and its pins: one case
    per row, or a plain test for a single row."""
    if len(rows) == 1:
        def test(tmp_path):
            _check_row(tmp_path, *rows[0].values)
        return test

    @pytest.mark.parametrize("command, text, code, err, out", rows)
    def test(tmp_path, command, text, code, err, out):
        _check_row(tmp_path, command, text, code, err, out)
    return test


def _cmd(command: str) -> str:
    return command.split()[-1].lstrip("-")


_NOT_FORCED = [c for c in _ALL if c != "run --allow-inadmissible"]
_FAST_U = MINIMAL + "[ic]\nu_amplitude = 80\n"
_SQUARES_OVERFLOW = ("[grid]\nnx = 8\nny = 8\n[physics]\nchi = 0\n"
                     "[ic]\nc_recipe = uniform\nc_value = 1e160\n"
                     "[time]\nt_end = 0.01\n[experiment]\nlevels = 3\n")
_SMALL = "[time]\nt_end = 0.01\n[experiment]\nlevels = 3\nreplicas = 2\n"
_DELTA = ("[grid]\nnx = 8\nny = 8\n[physics]\ndelta = {}\n"
          "[time]\nt_end = 0.004\n")
_FAIL_INF = "...consumption term: FAIL (margin -inf)..."
_ITO_BOUND = "error: ...exceeds the Ito-correction bound..."
_FAST_STEP = "dt=0.001 exceeds the advective bound"
_CAPPED = "dt=0.2 exceeds the step cap 0.1"
_SEED = ("error: [time] seed = {}: must be in [0, 2^64), the range of the "
         "noise key\n")

# The pinned inputs, one test per refusal: each runs its rows through
# _contract, the runner of the random draws too.

# the config refuses a value, a square or a schedule past the float or list
# range, or a mode the grid cannot resolve, before any solver runs
test_malformed_config_returns_error = _pinned(
    _row(None, "check-params", "[physics]\ndelta = -3\n", 2, "...delta..."))
test_extreme_grid_length_exits_2 = _pinned(
    *(_row(line, "check-params", f"[grid]\nnx = 8\nny = 8\n{line}\n", 2,
           f"error: [grid] {line.split()[0]} = ...2/h^2...")
      for line in ("lx = 1e-300", "ly = 1e-170", "lx = 1e300")))
test_step_count_overflow_exits_2 = _pinned(
    *(_row(f"{t_end}-{dt}-{_cmd(command)}", command,
           f"[grid]\nnx = 8\nny = 8\n[time]\nt_end = {t_end}\ndt = {dt}\n", 2,
           f"error: [time] dt = {float(dt)}: t_end / dt = ...")
      for t_end, dt in (("1e300", "1e-300"), ("1e20", "1e-3"))
      for command in _NOT_FORCED))
test_overflowing_square_exits_2 = _pinned(
    *(_row(f"{key}-{_cmd(command)}", command,
           f"[grid]\nnx = 8\nny = 8\n[physics]\n{key} = 1e200\n", 2,
           f"error: [physics] {key} = 1e+200: must be >= 0 with a finite "
           f"square...")
      for key in ("chi", "gamma") for command in _NOT_FORCED))
test_unresolved_velocity_modes_exit_2 = _pinned(
    *(_row(_cmd(command), command, "[grid]\nnx = 8\nny = 8\n"
           "[noise]\nk_modes = 50\n", 2,
           "error: [noise] k_modes = 50: must be <= (nx - 1)(ny - 1) = 49, "
           "the stream modes the grid resolves\n")
      for command in ("check-params", "run", "experiment ensemble")))

# the noise generator keys on 64 bits of the seed: a seed outside them,
# from the config or the flag, is refused rather than aliased
test_seed_outside_64_bits_exits_2 = _pinned(
    *(_row(f"{where}-{name}", command, text, 2, _SEED.format(seed))
      for name, seed in (("2^64", 2 ** 64), ("-1", -1))
      for where, command, text in (
          ("config", "run", _DELTA.format(1) + f"seed = {seed}\n"),
          ("flag", f"run --seed {seed}", _DELTA.format(1)))),
    _row("config-2^64-1", "run", _DELTA.format(1) + f"seed = {2 ** 64 - 1}\n",
         0, ""),
    _row("flag-2^64-1", f"run --seed {2 ** 64 - 1}", _DELTA.format(1), 0, ""),
    _row("flag-not-an-integer", "run --seed 1.5", _DELTA.format(1), 2,
         "error: [time] seed: cannot parse '1.5' as int\n"))

# a snapshot interval counts samples, and only the snapshot format writes
# them: an interval without that format is refused with the config
test_snapshot_every_needs_the_snapshot_format = _pinned(
    _row("csv-only", "run", _DELTA.format(1) + "[output]\nformats = csv\n"
         "snapshot_every = 2\n", 2, "error: [output] snapshot_every = 2: must "
         "be 0 unless formats includes snapshot\n"),
    _row("snapshot-listed", "run", _DELTA.format(1) + "[output]\n"
         "formats = csv,snapshot\nsnapshot_every = 2\n", 0, ""))

# a config, snapshot or output path that cannot be read or made
test_file_errors_exit_2_with_one_error_line = _pinned(
    _row("missing-config", "run --config {tmp}/missing.ini --out {tmp}/out",
         "", 2, "error: ...missing.ini: No such file or directory\n"),
    _row("config-is-a-directory", "run --config {tmp} --out {tmp}/out", "",
         2, "error: ...: Is a directory\n"),
    _row("config-not-utf-8", "run", b"\xff\xfe", 2,
         "error: ...c.ini is not UTF-8 text: 'utf-8' codec can't decode byte "
         "0xff in position 0: invalid start byte\n"),
    _row("missing-snapshot", "snapshot-info {tmp}/missing.cns", "", 2,
         "error: ...missing.cns: No such file or directory\n"),
    _row("out-is-a-file", "run --config {tmp}/c.ini --out {tmp}/c.ini",
         _DELTA.format(1), 2, "error: ...c.ini: File exists\n"),
    *(_row(f"nul-in-directory-{_cmd(command)}", command + " --config "
           "{tmp}/c.ini", _DELTA.format(1) + "[output]\n"
           "directory = a\0b\n", 2, "error: [output] directory = a\0b: "
           "must be a path without a NUL character\n")
      for command in ("run", "experiment twin", "experiment ensemble")))

# an initial field, a perturbed copy, a potential gradient or a mode weight
# past the float range, or a ladder, window or schedule the study cannot take
test_degenerate_setup_exits_2_with_one_error_line = _pinned(
    _row("n_sigma-square-overflows", "check-params",
         "[grid]\nnx = 5\nny = 5\n[ic]\nn_sigma = 1e160\n", 2,
         "error: [ic] n_sigma = 1e+160: must be > 0 with 2 n_sigma^2 a finite "
         "positive float\n"),
    _row("n_sigma-square-underflows", "check-params",
         "[grid]\nnx = 5\nny = 5\n[ic]\nn_sigma = 1e-200\n", 2,
         "error: [ic] n_sigma = 1e-200: must be > 0 with 2 n_sigma^2 a finite "
         "positive float\n"),
    _row("n-recipe-overflows", "check-params", "[grid]\nnx = 5\nny = 5\n"
         "[ic]\nn_base = 1e308\nn_amplitude = 1e308\n", 2,
         "error: [ic] n recipe produced a non-finite value\n"),
    _row("potential-gradient-overflows", "check-params",
         "[grid]\nnx = 5\nny = 5\n"
         "[physics]\nphi_scale = 1.7976931348623157e308\n", 2,
         "error: [physics] phi_scale = 1.7976931348623157e+308: the gradient "
         "of the potential is not finite\n"),
    _row("mode-weight-overflows", "run", "[grid]\nnx = 8\nny = 8\n"
         "[noise]\nmode_decay_exponent = -1e300\n", 2,
         "error: [noise] mode_decay_exponent = -1e+300: the mode weight "
         "k_modes^-exponent overflows\n"),
    _row("twin-perturbation-flips-sign", "experiment twin",
         "[grid]\nnx = 8\nny = 8\n[physics]\nchi = 0\n[ic]\nu_recipe = zero\n"
         "[experiment]\nperturbation = 1.5\n", 2,
         "error: [experiment] perturbation = 1.5: must be in [0, 1), so that "
         "the perturbed scalars keep their sign\n"),
    _row("twin-perturbed-copy-overflows", "experiment twin",
         "[grid]\nnx = 8\nny = 8\n"
         "[ic]\nn_recipe = uniform\nn_value = 1.7e308\n"
         "[experiment]\nperturbation = 0.5\n", 2,
         "error: the perturbed copy at amplitude 0.5 is not finite\n"),
    *(_row(f"stratonovich-{n}x{n}-width-{w}", "experiment stratonovich",
           _STRATONOVICH_SMALL.format(n=n, w=w), 2,
           f"error: the {n}x{n} grid leaves no interior window for the oxygen "
           f"bump at cutoff width {w}: min(nx, ny) must exceed {n}\n")
      for n, w in ((6, 1), (10, 2))),
    _row("ladder-exponent-overflows", "experiment convergence",
         "[grid]\nnx = 6\nny = 8\n[time]\nt_end = 0.0025\n"
         "[experiment]\nlevels = 1000000\n", 2,
         "error: the coarsest level dt = inf exceeds t_end = 0.0025..."),
    _row("ensemble-variance-overflows", "experiment ensemble",
         "[grid]\nnx = 6\nny = 10\n[physics]\ndelta = 1e-300\n"
         "[time]\nt_end = 0.01\n[experiment]\nreplicas = 2\n", 2,
         "error: the ensemble variance of entropy is not finite\n"))
test_ladder_longer_than_t_end_exits_2 = _pinned(
    *(_row(_cmd(command), command, "[grid]\nnx = 8\nny = 8\n"
           "[time]\nt_end = 0.002\ndt = 1e-3\n"
           "[experiment]\nlevels = 3\nreplicas = 2\n", 2,
           "error: the coarsest level dt = 0.004 exceeds t_end = 0.002...")
      for command in ("experiment convergence", "experiment stratonovich")))
test_experiment_setup_error_exits_2 = _pinned(
    _row(None, "experiment convergence",
         REFERENCE.replace("t_end = 0.02", "t_end = 0.0105"), 2,
         "error: t_end=0.0105 is not a multiple..."))
test_stratonovich_zero_t_end_exits_2 = _pinned(
    _row(None, "experiment stratonovich",
         REFERENCE.replace("t_end = 0.02", "t_end = 0"), 2,
         "error: t_end must be positive, got 0.0..."))
test_convergence_zero_t_end_exits_2 = _pinned(
    _row(None, "experiment convergence",
         REFERENCE.replace("t_end = 0.02", "t_end = 0")
         .replace("nx = 24", "nx = 16").replace("ny = 24", "ny = 16"), 2,
         "error: t_end must be positive, got 0.0..."))

# the admissibility gate says nothing about the step size: a fast initial
# velocity makes the first step exceed the advective bound
test_cmd_run_mid_run_failure_exits_3 = _pinned(
    _row(None, "run --allow-inadmissible", _FAST_U, 3,
         f"error: step 1: {_FAST_STEP}..."))
# where nothing moves, stable_dt returns its cap DT_MAX: a longer step is
# refused as above the cap, not as above an advective bound, by every
# command; the Stratonovich study refuses its coarsest level as set-up
_STILL = ("[grid]\nnx = 16\nny = 16\n[physics]\nchi = 0\ngamma = {gamma}\n"
          "[noise]\namplitude = 0\n[ic]\nu_recipe = zero\n"
          "[time]\ndt = {dt!r}\nt_end = {t_end!r}\n"
          "[experiment]\nlevels = 3\nreplicas = 2\n")
test_still_step_above_the_cap_exits_3 = _pinned(
    *(_row(_cmd(command), command, _STILL.format(gamma=0, dt=0.2, t_end=0.5),
           3, err)
      for command, err in (
          ("run", f"error: step 1: {_CAPPED}\n"),
          ("experiment twin", f"error: step 1: {_CAPPED}\n"),
          ("experiment ensemble", "error: replica 0 (base seed 1234) failed: "
           f"step 1 failed: {_CAPPED}\n"))),
    # the ladder 0.6, 0.3, 0.15 fits t_end
    *(_row(_cmd(command), command,
           _STILL.format(gamma=0.01, dt=0.15, t_end=0.6), code, err)
      for command, code, err in (
          ("experiment convergence", 3,
           "error: step 1: dt=0.6 exceeds the step cap 0.1\n"),
          ("experiment stratonovich", 2,
           "error: the coarsest level dt=0.6 exceeds the step cap 0.1\n"))))


def test_ito_bound_has_one_name_and_one_boundary(tmp_path):
    # on a still config where the explicit Ito correction binds, a run and
    # the Stratonovich study's coarsest level both take a step equal to the
    # bound, and both refuse the next float above its relative tolerance of
    # 1e-12, in the same words
    params = build_params(parse_config(_STILL.format(gamma=1.0, dt=1e-3,
                                                     t_end=1e-3)))
    bound = dynamics.CFL_SAFETY / dynamics.ito_rate(params)
    assert bound < dynamics.DT_MAX
    above = math.nextafter(bound * (1.0 + 1e-12), math.inf)
    refusals = []
    for dt in (bound, above):
        # the command, its config's dt, the codes that take the step (the
        # run's gates may fail, its step may not) and the refusal's code
        for command, level, taken, refused in (
                ("run --allow-inadmissible", dt, (0, 1), 3),
                ("experiment stratonovich", dt / 4, (0,), 2)):
            tmp = tmp_path / f"{command.split()[-1]}-{dt!r}"
            tmp.mkdir()
            text = _STILL.format(gamma=1.0, dt=level, t_end=dt)
            code, _, stderr = _contract(
                tmp, _config_argv(tmp, command.split(), text), text)
            assert code in (taken if dt == bound else (refused,)), stderr
            if dt == above:
                refusals.append(stderr)
    run_error, study_error = refusals
    limit = f"exceeds the Ito-correction bound {bound:g}\n"
    assert run_error == f"error: step 1: dt={above:g} {limit}"
    assert study_error == f"error: the coarsest level dt={above:g} {limit}"


test_experiment_mid_run_failure_exits_3 = _pinned(
    *(_row(f"{_cmd(command)}-{err}", command, _FAST_U, 3, err + "...")
      for command, err in (
          ("experiment twin", f"error: step 1: {_FAST_STEP}"),
          ("experiment ensemble", "error: replica 0 (base seed 1234) failed: "
           f"step 1 failed: {_FAST_STEP}"))))

# gamma^2 is finite, but the explicit Ito correction allows no step: the gate
# fails both noise branches, every integrating command stops at its first
# step, and the Stratonovich study refuses its coarsest level
test_huge_gamma_exits_without_traceback = _pinned(
    *(_row(_cmd(command), command, "[grid]\nnx = 8\nny = 8\n"
           "[physics]\ngamma = 1e100\n" + _SMALL, code, err)
      for command, code, err in (
          ("check-params", 1, ""), ("run", 2, "refusing to run: ..."),
          ("run --allow-inadmissible", 3, _ITO_BOUND),
          ("experiment twin", 3, _ITO_BOUND),
          ("experiment convergence", 3, _ITO_BOUND),
          ("experiment stratonovich", 2, "error: the coarsest level "
           "dt=0.004 exceeds the Ito-correction bound ..."),
          ("experiment ensemble", 3, _ITO_BOUND))))

# max f^2 overflows (linear) or f'(c0) underflows to 0 (saturating): the gate
# fails the consumption condition at margin -inf, and a command that
# integrates anyway ends with a defined exit code; the Stratonovich study,
# whose drift overflows, never reports success
test_huge_oxygen_exits_without_traceback = _pinned(
    *(_row(f"{law}-{c_value}-{_cmd(command)}", command,
           f"[grid]\nnx = 8\nny = 8\n[physics]\nf_name = {law}\n"
           f"[ic]\nc_recipe = uniform\nc_value = {c_value}\n" + _SMALL,
           codes, _FAIL_INF if command == "run" else None,
           _FAIL_INF if command == "check-params" else None)
      for law, c_value in (("linear", "1e160"), ("saturating", "1e200"))
      for command, codes in zip(_ALL, ({1}, {2}, {0, 2, 3}, {0, 2, 3},
                                       {0, 2, 3}, {2, 3}, {0, 2, 3}))))

# the fields are finite, but the sums of their squares or of their squared
# differences overflow: the reductions stay silent, and the check after them
# refuses the result; 257 replicas at 8x8 make two chunks, which run on
# worker threads, or in two processes where chunks fork, when two CPUs are
# usable
test_overflowing_study_distance_exits_2 = _pinned(
    *(_row(f"{_cmd(command)}-{err}", command, _SQUARES_OVERFLOW, 2,
           f"error: {err}\n")
      for command, err in (
          ("experiment convergence",
           "the refinement errors are not finite: [inf, inf]"),
          ("experiment twin", "the separation is not finite at t = 0"))))
_ENSEMBLE_OVERFLOW = [
    _row(id, "experiment ensemble",
         _SQUARES_OVERFLOW + f"replicas = {replicas}\n", 3,
         "error: replica 0 (base seed 1234) failed: sample at step 0 "
         "failed: diagnostics column h1_c is not finite...")
    for id, replicas in (("ensemble", 2), ("ensemble-two-chunks", 257))]
test_overflow_prints_only_the_error = _pinned(
    _row("allow-inadmissible", "run --allow-inadmissible",
         _SQUARES_OVERFLOW + "replicas = 2\n", 3,
         "error: step 0: diagnostics column h1_c is not finite..."),
    *_ENSEMBLE_OVERFLOW,
    _row("stratonovich", "experiment stratonovich",
         _SQUARES_OVERFLOW + "replicas = 2\n", 2,
         "error: the oxygen energy drift is not finite..."))


_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def _default_threads_env() -> dict:
    """_child_env() without a BLAS thread count: the command's default."""
    return {k: v for k, v in _child_env().items() if k not in _THREAD_COUNTS}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_command_asks_for_one_blas_thread():
    # imported first, the CLI leaves one thread, so ensemble chunks fork;
    # imported after numpy, or with a count set, it changes nothing
    forks = ("import sys, stochem.cli\n"
             "from stochem.experiments import fork_safe\n"
             "sys.exit(not fork_safe())\n")
    late = ("import os, sys, numpy, stochem.cli\n"
            "sys.exit('OPENBLAS_NUM_THREADS' in os.environ)\n")
    chosen = ("import os, sys, stochem.cli\n"
              "sys.exit(os.environ['OPENBLAS_NUM_THREADS'] != '2')\n")
    env = _default_threads_env()
    for code, extra in ((forks, {}), (late, {}),
                        (chosen, {"OPENBLAS_NUM_THREADS": "2"})):
        done = subprocess.run([sys.executable, "-c", code],
                              env={**env, **extra})
        assert done.returncode == 0, code


def test_command_defers_unused_numpy_submodules():
    # imported first, the CLI leaves f2py and testing unexecuted, warning
    # about nothing, and a real use of testing still loads it
    code = ("import sys, stochem.cli\n"
            "early = {'numpy.f2py.crackfortran', 'unittest'} & set(sys.modules)\n"
            "if early:\n"
            "    sys.exit(f'executed at import: {sorted(early)}')\n"
            "import numpy\n"
            "numpy.testing.assert_array_equal([1], [1])\n"
            "sys.exit('unittest' not in sys.modules)\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_numpy_imported_first_defers_nothing():
    # a program that imported numpy keeps numpy's own import behaviour
    code = ("import sys, types, numpy, stochem.cli\n"
            "lazy = [name for name, module in list(sys.modules.items())\n"
            "        if name.startswith('numpy')\n"
            "        and type(module) is not types.ModuleType]\n"
            "sys.exit(bool(stochem.cli.DEFERRED or lazy))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env())
    assert done.returncode == 0


def _single_threaded_cli(argv: list[str], cpus: int):
    """Run ``stochem argv`` in a fresh interpreter with no BLAS thread count
    set, pinned to the first ``cpus`` of the usable CPUs; the interpreter
    exits with a message unless ensemble chunks may fork there, as they
    should under the command's default of one BLAS thread."""
    env = _default_threads_env()
    script = ("import os, sys\n"
              "cpus = sorted(os.sched_getaffinity(0))[:int(sys.argv[1])]\n"
              "os.sched_setaffinity(0, cpus)\n"
              "from stochem.cli import main\n"
              "from stochem.experiments import fork_safe\n"
              "if not fork_safe():\n"
              "    sys.exit('ensemble chunks may not fork here')\n"
              "sys.exit(main(sys.argv[2:]))\n")
    return subprocess.run([sys.executable, "-c", script, str(cpus), *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs the fork start method and two usable CPUs")
def test_forked_ensemble_matches_one_cpu(tmp_path):
    # 16 replicas at 32^2 (one chunk, split in two where chunks fork) and
    # the two chunks of 257 replicas at 8^2 run in two processes on two
    # CPUs; the output bytes, and a failure's exit code and stderr, are
    # those of a run on one CPU
    cfg = _write_cfg(tmp_path, REFERENCE.replace(
        "nx = 24\nny = 24", "nx = 32\nny = 32").replace("replicas = 2",
                                                       "replicas = 16"))
    outputs = []
    for cpus in (2, 1):
        out = tmp_path / f"out-{cpus}"
        done = _single_threaded_cli(["experiment", "ensemble", "--config",
                                     str(cfg), "--out", str(out)], cpus)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append((out / "ensemble_stats.csv").read_bytes())
    assert outputs[0] == outputs[1]

    command, text, code, err, _ = _ENSEMBLE_OVERFLOW[1].values
    (tmp_path / "two-chunks.ini").write_text(text)
    failed = [_single_threaded_cli(
        [*command, "--config", str(tmp_path / "two-chunks.ini"), "--out",
         str(tmp_path / f"failed-{cpus}")], cpus) for cpus in (2, 1)]
    assert failed[0].returncode == failed[1].returncode == code
    assert failed[0].stderr == failed[1].stderr
    assert _matches(failed[0].stderr, err), failed[0].stderr


# the Stratonovich study builds only the oxygen recipe, and only for its
# height: a cell recipe it never uses cannot refuse it, and a uniform
# oxygen of 0.1 makes a bump of height 0.1 (the default gradient's is 0.3)
test_stratonovich_reads_only_the_oxygen_recipe = _pinned(
    *(_row(id, "experiment stratonovich",
           f"[grid]\nnx = 7\nny = 7\n[ic]\n{ic}\n" + _SMALL, 0, "",
           f"finest-level drift gap: ... (reference {reference}...)\n")
      for id, ic, reference in (
          ("cells-overflow", "n_base = 1e308\nn_amplitude = 1e308", "0.0036"),
          ("uniform-oxygen", "c_recipe = uniform\nc_value = 0.1", "0.0004"))))

# the bump at the largest float overflows in its first drift step; the study
# stops as a run does and names the level, replica and step
test_stratonovich_non_finite_oxygen_exits_3 = _pinned(
    _row(None, "experiment stratonovich",
         "[grid]\nnx = 8\nny = 8\n"
         "[ic]\nc_recipe = uniform\nc_value = 1.7e308\n" + _SMALL, 3,
         "error: level dt = 0.004, replica 0 failed: step 1 failed: field c "
         "is not finite..."))

# batched or not, a sample that is not finite is named by its column: the L2
# norm of u overflows (the noise scale reads it as tanh(inf) = 1), 3 xi eta
# underflows to zero under the entropy weight, or the buoyancy n grad(phi)
# overflows inside the first step
test_non_finite_measurement_exits_3_with_one_error_line = _pinned(
    *(_row(f"{name}-{command.split()[-1]}", command,
           text + "[time]\nt_end = 0.01\n[experiment]\nreplicas = 2\n", 3,
           f"...{column} is not finite...")
      for name, text, column in (
          ("velocity-norm", "[grid]\nnx = 6\nny = 8\nlx = 1e154\n", "l2_u"),
          ("entropy-weight", "[grid]\nnx = 7\nny = 7\n"
           "[physics]\neta = 5e-324\nmu = 5e-324\n", "entropy"),
          ("buoyancy", "[grid]\nnx = 6\nny = 6\n[physics]\nphi_scale = 1e300\n"
           "[ic]\nn_base = 1e300\n", "field u_x"))
      for command in ("run --allow-inadmissible", "experiment ensemble")))

# K_f's term chi^2 / (2 delta f') is 0 or inf when 2 delta f' overflows,
# underflows to 0 (f'(2) = 1/9 for the saturating law) or the quotient
# overflows; the gate and the tracker take it silently
test_k_f_out_of_range_exits_without_warning = _pinned(
    _row("delta-1e308-run", "run", _DELTA.format("1e308"), 0, ""),
    _row("delta-5e-324-allow-inadmissible", "run --allow-inadmissible",
         _DELTA.format("5e-324"), 3,
         "error: step 0: diagnostics column entropy is not finite: inf\n"),
    *(_row(f"delta-f-prime-underflows-{_cmd(command)}", command,
           _DELTA.format("5e-324\nf_name = saturating")
           + "[ic]\nc_recipe = uniform\nc_value = 2\n", code, err, out)
      for command, code, err, out in (
          ("check-params", 1, "", "K_f = inf\n" + _FAIL_INF),
          ("run --allow-inadmissible", 3, "error: step 0: diagnostics column "
           "entropy is not finite: nan\n", None))))


@pytest.mark.parametrize("command", _CONTRACT_COMMANDS,
                         ids=lambda c: "-".join(c).lstrip("-"))
@settings(max_examples=50)
@given(text=_cli_configs(), cut=st.floats(0.0, 1.0, exclude_max=True),
       lx=st.sampled_from(["1", "5e-324", "1e300"]))
def test_cli_contract_on_extreme_configs(command, text, cut, lx):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command != ["snapshot-info"]:
            _contract(tmp, _config_argv(tmp, command, text), text)
            return
        # a snapshot cut short anywhere, header included
        g = Grid(nx=5, ny=4, lx=float(lx), ly=1.0, dx=float(lx) / 5, dy=0.25)
        write_snapshot(State(u=zeros_vector(g), c=zeros_scalar(g),
                             n=zeros_scalar(g), t=0.0), tmp / "s.cns")
        blob = (tmp / "s.cns").read_bytes()
        (tmp / "s.cns").write_bytes(blob[:int(cut * len(blob))])
        _contract(tmp, ["snapshot-info", str(tmp / "s.cns")])
