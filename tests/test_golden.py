"""Golden-output oracle: fixed configs must reproduce pinned bytes.

A refactor or speed change that keeps the numerics keeps these hashes.  A
change that moves them on purpose updates the pinned values and says why in
CHANGES.md.  The digests pin the bits produced by the numpy/scipy FFT stack
the suite runs on; a different FFT backend may round differently.
"""

import hashlib
import re
from pathlib import Path

import pytest

from stochem import experiments
from stochem.cli import main

NOISY = """\
[grid]
nx = 24
ny = 24

[physics]
gamma = 0.1

[noise]
amplitude = 0.02

[time]
t_end = 0.04
dt = 1e-3
sample_every = 8
seed = 2023

[ic]
u_amplitude = 0.2

[output]
formats = csv,snapshot
"""

# the noisy config as a 4-replica ensemble
ENSEMBLE = NOISY + "\n[experiment]\nreplicas = 4\n"

# the noisy config as the three path studies, each kept small
STUDY = NOISY + "\n[experiment]\nlevels = 3\nreplicas = 3\n"

QUIET = (NOISY.replace("gamma = 0.1", "gamma = 0")
         .replace("amplitude = 0.02", "amplitude = 0"))

# the README quick-start config, found as CI's readme-smoke job finds it
PLUME = re.search(r"```ini\n(# plume\.ini\n.*?)```",
                  (Path(__file__).parents[1] / "README.md").read_text(
                      encoding="utf-8"), re.S).group(1)

GOLDEN = {
    "noisy": {
        "diagnostics.csv":
            "5d6c9245b504e6130fd874019158d9de6fa4b0262def85b5adb0454681012fc5",
        "final.cns":
            "0bacee7c2461e00ccfc408f8be42223881fa88b81efa3dd9ea9d6284934795ba",
    },
    "quiet": {
        "diagnostics.csv":
            "f10194de44fabfa463ce80130ae35a309aac678383c42a0e54d884dc0ce0c9f0",
        "final.cns":
            "7027c9f94e1c0bc7e50c59fc6a6d3aa8e636d52e1c56d88521e4787ad82d42be",
    },
}

GOLDEN_ENSEMBLE_STATS = \
    "26b88a6b886a6a5b614b16520bd6b462c23790680e288629d69a0453d40c859c"

# experiment name -> (output file, digest) on the STUDY config
GOLDEN_STUDY = {
    "twin": (
        "twin.csv",
        "8ec67bc1e8bbb9bfe7bbf49b9d20add40b370c1ee1bd6f2aa2c9807277136f0d"),
    "convergence": (
        "convergence.json",
        "b871a5a64cdc7eb4d187849e57a23c9cef1175022110d0f368e34be67052655f"),
    "stratonovich": (
        "stratonovich.json",
        "b23b373a592556ebf1516ed90a4adcff507d106ec344cc255356e08b2496bcdf"),
}

PLUME_CHECK_PARAMS = """\
K_f = 1.5
smallness condition on the consumption term: PASS (margin +0.467008)
noise intensity, linear branch: PASS (margin +0.031875)
noise intensity, power branch (p=2): PASS (margin +0.0233114)
admissible |c0|_inf bound = 0.408248290464
measured |sigma|_inf = 1.41421356237
elliptic constant K0 = 1
admissible
"""


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, text", [("noisy", NOISY), ("quiet", QUIET)])
def test_run_outputs_match_golden_hashes(tmp_path, name, text):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    got = {f: _sha256(out / f) for f in GOLDEN[name]}
    assert got == GOLDEN[name]


def test_ensemble_stats_match_golden_hash(tmp_path):
    # one chunk, so it runs on the calling thread whatever the CPU count
    cfg = tmp_path / "ensemble.ini"
    cfg.write_text(ENSEMBLE)
    out = tmp_path / "out"
    assert main(["experiment", "ensemble", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert _sha256(out / "ensemble_stats.csv") == GOLDEN_ENSEMBLE_STATS


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_multi_chunk_ensemble_stats_match_golden_hash(tmp_path, monkeypatch,
                                                      cpus):
    # one 24^2 replica per chunk: 4 chunks, run serially or on a pool of 2
    # or 4 workers, write the bytes of one chunk on the calling thread
    monkeypatch.setattr(experiments, "BATCH_CELLS", 24 * 24)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    cfg = tmp_path / "ensemble.ini"
    cfg.write_text(ENSEMBLE)
    out = tmp_path / "out"
    assert main(["experiment", "ensemble", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert _sha256(out / "ensemble_stats.csv") == GOLDEN_ENSEMBLE_STATS


@pytest.mark.parametrize("which", sorted(GOLDEN_STUDY))
def test_study_output_matches_golden_hash(tmp_path, which):
    cfg = tmp_path / "study.ini"
    cfg.write_text(STUDY)
    out = tmp_path / "out"
    assert main(["experiment", which, "--config", str(cfg),
                 "--out", str(out)]) == 0
    name, digest = GOLDEN_STUDY[which]
    assert _sha256(out / name) == digest


def test_check_params_output_matches_golden(tmp_path, capsys):
    cfg = tmp_path / "plume.ini"
    cfg.write_text(PLUME)
    assert main(["check-params", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "elliptic constant K0 = 1\n" in out
    assert out == PLUME_CHECK_PARAMS
