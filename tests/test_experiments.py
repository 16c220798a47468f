import threading
from dataclasses import replace

import numpy as np
import pytest

from stochem import _spectral, dynamics, experiments, noise
from stochem.diagnostics import column
from stochem.dynamics import SimulationError, State, run
from stochem.experiments import (ENSEMBLE_COLUMNS, ExperimentError,
                                 convergence_dt, ensemble, interior_bump,
                                 stratonovich_consistency, twin_run)
from stochem.grid import ScalarField, make_grid, scalar_face_gradients
from stochem.noise import make_transport_sigma

from conftest import (default_params, quiescent_state, random_solenoidal,
                      record_calls)
from oracles import bounded_by_exponential


def _setup(nx=24, gamma=0.08, amplitude=0.02, seed=5):
    g = make_grid(nx, nx, 1.0, 1.0)
    y = (np.arange(nx)[None, :] + 0.5) * g.dy * np.ones((nx, 1))
    x = (np.arange(nx)[:, None] + 0.5) * g.dx * np.ones((1, nx))
    params = default_params(g, gamma=gamma, amplitude=amplitude, phi_values=y)
    rng = np.random.default_rng(seed)
    st = State(u=random_solenoidal(g, rng, 0.1),
               c=ScalarField(g, 0.05 + 0.2 * y),
               n=ScalarField(g, 0.05 + np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                              / 0.05)),
               t=0.0)
    return params, st


# ----------------------------------------------------------------- twins

def test_twin_zero_perturbation_is_bitwise_zero():
    params, st = _setup()
    rep = twin_run(params, st, 11, 0.0, 0.05, 1e-3, sample_every=5)
    assert np.all(rep.separation == 0.0)
    assert rep.growth_rate == 0.0


def test_twin_different_seeds_separate():
    params, st = _setup()
    a = twin_run(params, st, 11, 0.0, 0.05, 1e-3)
    k = params.vnoise.n_modes
    # same initial state, different noise path: states differ, so a twin of
    # runs with different seeds has positive separation
    f1, _ = run(st, params, 0.05, 1e-3, seed=11)
    f2, _ = run(st, params, 0.05, 1e-3, seed=12)
    diff = np.max(np.abs(f1.c.values - f2.c.values))
    assert diff > 0.0
    assert np.all(a.separation == 0.0)


def test_twin_perturbation_growth_bounded():
    params, st = _setup()
    rep = twin_run(params, st, 11, 1e-6, 0.05, 1e-3, sample_every=5)
    assert rep.separation[0] > 0.0
    assert np.all(rep.separation > 0.0)
    assert np.isfinite(rep.growth_rate)
    assert bounded_by_exponential(rep)


def test_twin_samples_the_last_step_as_run_does():
    # 10 steps at sample_every 3: run records steps 0, 3, 6, 9 and 10, and
    # Y(t) ends at t_end too
    params, st = _setup(nx=16)
    rep = twin_run(params, st, 11, 1e-6, 0.01, 1e-3, sample_every=3)
    _, rows = run(st, params, 0.01, 1e-3, seed=11, sample_every=3)
    assert rep.times.tolist() == [row.t for row in rows]
    assert len(rep.separation) == 5


# ----------------------------------------------------------------- dt study

def test_convergence_requires_three_nested_levels():
    params, st = _setup(gamma=0.0, amplitude=0.0)
    with pytest.raises(ExperimentError):
        convergence_dt(params, st, 0, 1e-3, 1, 0.016)
    with pytest.raises(ExperimentError):
        convergence_dt(params, st, 0, 1e-3, 3, 0.0131)


def test_convergence_deterministic_first_order():
    params, st = _setup(gamma=0.0, amplitude=0.0)
    rep = convergence_dt(params, st, 3, 5e-4, 4, 0.064)
    assert np.all(rep.errors > 0.0)
    assert np.all(np.diff(rep.errors) < 0.0)
    assert rep.slope >= 0.9


def test_convergence_stochastic_order_floor():
    params, st = _setup(gamma=0.08, amplitude=0.03)
    rep = convergence_dt(params, st, 3, 5e-4, 4, 0.064)
    assert rep.slope >= 0.45


def test_convergence_uses_one_brownian_path(monkeypatch):
    # each of 3 levels sums every finest draw 0 .. n-1 once: at n = 16 the
    # coarsest takes 4 full steps, at n = 10 it takes 2 and a landing step
    # that sums the last 2 draws
    log = record_calls(monkeypatch, "march", experiments)
    record_calls(monkeypatch, "sample_increments", dynamics, log=log)
    for t_end, n in ((0.016, 16), (0.01, 10)):
        log.clear()
        convergence_dt(*_setup(nx=8), 3, 1e-3, 3, t_end)
        levels = []   # the step indices drawn by each level's march
        for call in log:
            if call.name == "march":
                levels.append([])
            else:
                levels[-1].append(call.args[2])
        assert [sorted(level) for level in levels] == [list(range(n))] * 3


def test_convergence_draws_each_increment_when_a_step_needs_it(monkeypatch):
    # the coarsest of 3 levels sums 4 finest draws per step: when it takes
    # its k-th step, 4 k draws exist, not the 16 of the whole path
    log = record_calls(monkeypatch, "sample_increments", dynamics)
    record_calls(monkeypatch, "merge_increments", experiments, log=log)
    convergence_dt(*_setup(nx=8), 3, 1e-3, 3, 0.016)
    at_merge = [i for i, call in enumerate(log)
                if call.name == "merge_increments"]
    # the draws made before each merge
    assert [i - k for k, i in enumerate(at_merge)][:4] == [4, 8, 12, 16]


# ----------------------------------------------------------------- transport

def _strat_params(gamma, nx=64):
    return default_params(make_grid(nx, nx, 1.0, 1.0), mu=0.0, chi=0.0,
                          gamma=gamma, amplitude=0.0, k_modes=1)


def test_stratonovich_zero_noise_paths_identical():
    rep = stratonovich_consistency(_strat_params(0.0), 0.3, 4, 1.5e-3, 2,
                                   0.024, n_replicas=2)
    assert np.array_equal(rep.drift_corrected, rep.drift_naive)


def test_stratonovich_correction_drift_vanishes_linearly():
    T = 0.024
    rep = stratonovich_consistency(_strat_params(0.15), 0.3, 11, T / 32, 3, T,
                                   n_replicas=8)
    r1 = rep.drift_corrected[1] / rep.drift_corrected[0]
    r2 = rep.drift_corrected[2] / rep.drift_corrected[1]
    assert 0.4 <= r1 <= 0.6
    assert 0.4 <= r2 <= 0.6
    gap_err = abs(rep.gap[-1] - rep.reference_gap) / rep.reference_gap
    assert gap_err <= 0.10


def test_stratonovich_rejects_empty_study():
    params = _strat_params(0.15, nx=16)
    with pytest.raises(ExperimentError, match="t_end must be positive"):
        stratonovich_consistency(params, 0.3, 4, 1e-3, 1, 0.0)
    with pytest.raises(ExperimentError, match="at least one replica"):
        stratonovich_consistency(params, 0.3, 4, 1e-3, 1, 0.004,
                                 n_replicas=0)


def test_dt_ladder_needs_one_coarse_step():
    assert experiments.dt_ladder(1e-3, 3, 0.004) == [0.004, 0.002, 0.001]
    with pytest.raises(ExperimentError, match="coarsest level dt = 0.004 "
                                              "exceeds t_end = 0.002"):
        experiments.dt_ladder(1e-3, 3, 0.002)
    with pytest.raises(ExperimentError, match="coarsest level"):
        convergence_dt(*_setup(gamma=0.0, amplitude=0.0), 0, 1e-3, 3, 0.002)


def test_stratonovich_refuses_level_above_ito_bound():
    # the study steps outside march, so it checks the bound that stable_dt
    # puts on the explicit Ito correction itself
    params = _strat_params(0.15, nx=16)
    still = quiescent_state(params.grid, c=0.3)
    bound = dynamics.stable_dt(still, params, scalar_face_gradients(still.c))
    assert bound == dynamics.CFL_SAFETY / dynamics.ito_rate(params) < 0.1
    with pytest.raises(ExperimentError, match="Ito-correction bound"):
        stratonovich_consistency(params, 0.3, 4, 0.51 * bound, 2, 0.5,
                                 n_replicas=1)


def test_stratonovich_evaluates_drift_and_modes_once_per_step(monkeypatch):
    # the corrected and the naive scheme are the two lanes of one pair, so
    # each step solves the diffusion and evaluates the modes once for both
    params = _strat_params(0.15, nx=16)
    log = record_calls(monkeypatch, "solve_scalar_diffusion", _spectral)
    record_calls(monkeypatch, "transport_noise_modes", noise, log=log)
    stratonovich_consistency(params, 0.3, 4, 2e-3, 2, 0.008, n_replicas=2)
    steps = 2 * (2 + 4)   # replicas times the steps of both levels
    assert ([call.name for call in log]
            == ["solve_scalar_diffusion", "transport_noise_modes"] * steps)


# ----------------------------------------------------------------- ensembles

def _usable_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)


def test_ensemble_single_replica_equals_series():
    params, st = _setup()
    stats = ensemble(params, st, 9, 1, 0.02, 1e-3, sample_every=5)
    _, series = run(st, params, 0.02, 1e-3, seed=9, sample_every=5, replica=0)
    assert np.array_equal(stats.mean["mass_n"], column(series, "mass_n"))
    assert np.all(stats.variance["mass_n"] == 0.0)
    assert np.array_equal(stats.maximum["entropy"], column(series, "entropy"))


def test_ensemble_mass_is_pathwise_conserved():
    params, st = _setup()
    stats = ensemble(params, st, 2, 4, 0.02, 1e-3, sample_every=10)
    m0 = stats.mean["mass_n"][0]
    assert np.max(np.abs(stats.mean["mass_n"] - m0)) <= 1e-12 * m0
    assert np.max(stats.variance["mass_n"]) <= (1e-12 * m0) ** 2


@pytest.mark.parametrize("chunks", [1, 2, 5])
@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_ensemble_pool_has_one_worker_per_chunk_up_to_the_cpus(monkeypatch,
                                                               cpus, chunks):
    # 5 replicas at 24^2 in chunks of at most 5, 3 or 1 replicas
    monkeypatch.setattr(experiments, "BATCH_CELLS",
                        24 * 24 * {1: 5, 2: 3, 5: 1}[chunks])
    _usable_cpus(monkeypatch, cpus)

    def no_start(self):
        raise AssertionError("a thread was started")

    pools = record_calls(monkeypatch, "ThreadPoolExecutor", experiments)
    workers = min(chunks, cpus)
    if workers == 1:   # the chunks run on the calling thread
        monkeypatch.setattr(threading.Thread, "start", no_start)
    params, st = _setup()
    runs = record_calls(monkeypatch, "run", dynamics)
    ensemble(params, st, 3, 5, 0.002, 1e-3)
    assert len(runs) == chunks
    assert ([call.kwargs["max_workers"] for call in pools]
            == ([] if workers == 1 else [workers]))


def test_ensemble_reports_failing_replica():
    params, st = _setup()
    st = st.copy()
    st.u.u_x[5, 5] = 90.0   # every replica violates the advective bound
    with pytest.raises(ExperimentError, match="replica 0") as err:
        ensemble(params, st, 7, 3, 0.01, 1e-3)
    assert isinstance(err.value.__cause__, SimulationError)


@pytest.mark.parametrize("cpus, chunks", [(1, [3, 2]), (2, [3, 2]),
                                          (3, [2, 2, 1])],
                         ids=["threads=1", "threads=2", "threads=3"])
def test_ensemble_is_bitwise_equal_across_thread_counts(monkeypatch, cpus,
                                                        chunks):
    # a smaller BATCH_CELLS splits the 5 replicas into uneven chunks of
    # lanes; the statistics equal those of one batch of 5 bit for bit,
    # whatever number of threads runs the chunks
    params, st = _setup()
    reference = ensemble(params, st, 6, 5, 0.012, 1e-3, sample_every=4)
    # room for chunks[0] replicas of 24^2 cells in one chunk
    monkeypatch.setattr(experiments, "BATCH_CELLS", 24 * 24 * chunks[0])
    _usable_cpus(monkeypatch, cpus)
    runs = record_calls(monkeypatch, "run", dynamics)
    stats = ensemble(params, st, 6, 5, 0.012, 1e-3, sample_every=4)
    assert sorted((call.args[0].n.lanes[0] for call in runs),
                  reverse=True) == chunks
    for col in ENSEMBLE_COLUMNS:
        for got, want in ((stats.mean, reference.mean),
                          (stats.variance, reference.variance),
                          (stats.maximum, reference.maximum),
                          (stats.ci95, reference.ci95)):
            assert np.array_equal(got[col], want[col])


def _nan_dbeta(monkeypatch, fail_at: dict[int, int]) -> None:
    """Make replica r's increment non-finite from step index fail_at[r]."""
    draw = dynamics.sample_increments

    def poisoned(seed, replica, index, dt, k_modes):
        inc = draw(seed, replica, index, dt, k_modes)
        if index >= fail_at.get(replica, index + 1):
            return replace(inc, dbeta=inc.dbeta * np.nan)
        return inc

    monkeypatch.setattr(dynamics, "sample_increments", poisoned)


@pytest.mark.parametrize("cpus", [1, 2])
def test_ensemble_maps_failing_lane_to_replica(monkeypatch, cpus):
    # replica 3 is lane 3 of one chunk of 5, or lane 1 of the second of two
    _nan_dbeta(monkeypatch, {3: 0})
    _usable_cpus(monkeypatch, cpus)
    params, st = _setup()
    for cells in (experiments.BATCH_CELLS, 24 * 24 * 3):
        monkeypatch.setattr(experiments, "BATCH_CELLS", cells)
        with pytest.raises(ExperimentError) as err:
            ensemble(params, st, 8, 5, 0.01, 1e-3)
        assert str(err.value) == ("replica 3 (base seed 8) failed: step 1 "
                                  "failed: field c is not finite")


@pytest.mark.parametrize("cpus", [1, 2])
def test_ensemble_names_first_failure_in_time_across_chunks(monkeypatch,
                                                            cpus):
    # replica 1 (first chunk) fails at step 5, replica 4 (second chunk) at
    # step 1: the second chunk's failure is the first in time
    monkeypatch.setattr(experiments, "BATCH_CELLS", 24 * 24 * 2)
    _usable_cpus(monkeypatch, cpus)
    _nan_dbeta(monkeypatch, {1: 4, 4: 0})
    params, st = _setup()
    with pytest.raises(ExperimentError) as err:
        ensemble(params, st, 8, 5, 0.01, 1e-3)
    assert str(err.value) == ("replica 4 (base seed 8) failed: step 1 failed: "
                              "field c is not finite")
    assert isinstance(err.value.__cause__, SimulationError)


def test_ensemble_mean_energy_residual_is_martingale_small():
    # pathwise the stochastic residual carries a discarded martingale; its
    # ensemble mean must sit within 3 sigma of zero plus the O(dt) bias
    params, st = _setup(gamma=0.1, amplitude=0.0)
    stats = ensemble(params, st, 5, 16, 0.1, 1e-3, sample_every=100)
    mean = stats.mean["energy_residual"][-1]
    sd = np.sqrt(stats.variance["energy_residual"][-1])
    assert sd > 0.0
    assert abs(mean) <= 3.0 * sd / np.sqrt(16) + 5e-3


def test_interior_bump_supported_in_identity_region():
    g = make_grid(48, 48, 1.0, 1.0)
    sigma = make_transport_sigma(g, 2)
    f = interior_bump(g, sigma, scale=2.0)
    assert float(f.values.max()) == pytest.approx(2.0, rel=0.05)
    outside = f.values.copy()
    outside[sigma.interior] = 0.0
    assert np.all(outside == 0.0)
