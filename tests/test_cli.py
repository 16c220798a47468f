import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochem.cli import (_SCHEMA, ConfigError, SnapshotError,
                         build_simulation, main, parse_config, read_snapshot,
                         write_snapshot)
from stochem.dynamics import State
from stochem.grid import ScalarField, VectorField, make_grid


MINIMAL = "[grid]\nnx = 16\nny = 16\n"


def test_minimal_document_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg[("grid", "nx")] == 16
    assert cfg[("physics", "eta")] == 1.0
    assert cfg[("time", "sample_every")] == 10
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
    assert cfg[("grid", "nx")] == 32


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


@settings(max_examples=10, deadline=None)
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


def test_cmd_experiment_twin_and_convergence(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "exp"
    assert main(["experiment", "twin", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = (out / "twin.csv").read_text().splitlines()
    assert lines[0] == "t,separation"
    assert len(lines) > 2

    text = REFERENCE.replace("t_end = 0.02", "t_end = 0.016")
    cfg2 = _write_cfg(tmp_path, text)
    assert main(["experiment", "convergence", "--config", str(cfg2),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["slope"] > 0.4
    assert len(payload["errors"]) == 2


def test_cmd_experiment_ensemble(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ens"
    assert main(["experiment", "ensemble", "--config", str(cfg),
                 "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "ensemble_stats.csv").read_text().splitlines()
    assert lines[0].startswith("t,mass_n_mean,mass_n_var,mass_n_max")
    assert len(lines) == 1 + 5


def test_cmd_experiment_stratonovich(tmp_path):
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


def test_threads_default_comes_from_environment(monkeypatch):
    from stochem.cli import _thread_count

    class Args:
        threads = None

    monkeypatch.setenv("STOCHEM_THREADS", "3")
    assert _thread_count(Args()) == 3
    monkeypatch.setenv("STOCHEM_THREADS", "junk")
    assert _thread_count(Args()) == 1
    monkeypatch.delenv("STOCHEM_THREADS")
    assert _thread_count(Args()) == 1
    Args.threads = 5
    assert _thread_count(Args()) == 5


def test_malformed_config_returns_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[physics]\ndelta = -3\n")
    assert main(["check-params", "--config", str(p)]) == 2
    assert "delta" in capsys.readouterr().err


def test_cmd_run_mid_run_failure_exits_3(tmp_path, capsys):
    # the admissibility gate says nothing about the step size: a fast initial
    # velocity makes the first step exceed the advective bound
    cfg = _write_cfg(tmp_path, MINIMAL + "[ic]\nu_amplitude = 80\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--allow-inadmissible"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: dt=0.001 exceeds the advective bound")
    assert "Traceback" not in err


def test_experiment_setup_error_exits_2(tmp_path, capsys):
    # t_end is not a multiple of the finest dt level
    text = REFERENCE.replace("t_end = 0.02", "t_end = 0.0105")
    cfg = _write_cfg(tmp_path, text)
    code = main(["experiment", "convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end=0.0105 is not a multiple")
    assert "Traceback" not in err


@pytest.mark.parametrize("which,message", [
    ("twin", "error: step 1: dt=0.001 exceeds the advective bound"),
    ("ensemble", "error: replica 0 (base seed 1234) failed: step 1 failed: "
                 "dt=0.001 exceeds the advective bound"),
])
def test_experiment_mid_run_failure_exits_3(tmp_path, capsys, which, message):
    cfg = _write_cfg(tmp_path, MINIMAL + "[ic]\nu_amplitude = 80\n")
    code = main(["experiment", which, "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("command", ["run", "check-params"])
def test_threads_only_on_experiment(tmp_path, command):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--threads", "8"])
    assert exc.value.code == 2


def test_import_loads_no_iterative_solver():
    import stochem
    src = str(Path(stochem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, stochem.cli; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0
