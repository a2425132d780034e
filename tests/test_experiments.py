"""Monte Carlo harness: configs, recovery experiments, tail tables.

The cell oracle re-derives one experiment cell inline from library
primitives using the documented stream paths, so the harness's seed
contract is pinned by test, not convention.
"""

import json
import math

import numpy as np
import pytest

from spectradag.bounds import psdm_tail_bound
from spectradag.cpsd import default_gamma, sample_psdm
from spectradag.errors import ConfigError
from spectradag.experiments import (
    EXPERIMENT_CSV_HEADER,
    ExperimentConfig,
    ExperimentRecord,
    TailRow,
    config_from_json,
    config_to_json,
    records_to_csv,
    resolve_gamma,
    run_experiment,
    tail_deviations,
    tail_experiment,
    tail_to_csv,
)
from spectradag.graphs import graph_equal, random_dag, structural_hamming
from spectradag.linalg import spectral_norm
from spectradag.models import (
    NoiseSpec,
    build_model,
    expected_psdm_finite_n,
)
from spectradag.reconstruct import ReconstructionParams, reconstruct
from spectradag.seeding import (
    NOISE_CODES,
    STRATEGY_CODES,
    STREAM_DATA,
    STREAM_MODEL,
    STREAM_TAIL,
    seed_path,
)


def small_config(**overrides):
    base = dict(
        p=4,
        q=1,
        n_grid=(20, 200),
        noise="iid",
        strategies=("restart_record", "continuous"),
        num_samples=16,
        omega_index=3,
        trials=6,
        seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = ExperimentConfig(p=5, q=2, n_grid=(100,))
    assert cfg.noise == (NoiseSpec("iid"),)
    assert cfg.strategies == ("restart_record", "continuous")
    assert cfg.num_samples == 64
    assert cfg.omega_index == 17
    assert cfg.trials == 50
    assert cfg.seed == 0
    assert cfg.gamma_override is None
    assert cfg.omega == pytest.approx(2.0 * math.pi * 17.0 / 64.0, rel=1e-15)


def test_config_noise_normalization():
    assert ExperimentConfig(p=3, q=1, n_grid=(10,), noise="ar1").noise == (
        NoiseSpec("ar1"),
    )
    spec = NoiseSpec("ar1", sigma_w=1.0, alpha=0.7)
    assert ExperimentConfig(p=3, q=1, n_grid=(10,), noise=spec).noise == (spec,)
    mixed = ExperimentConfig(
        p=3,
        q=1,
        n_grid=(10,),
        noise=("iid", {"kind": "ar1", "sigma_w": 1.0, "alpha": 0.7}),
    )
    assert mixed.noise == (NoiseSpec("iid"), spec)


def test_config_strategy_normalization():
    cfg = ExperimentConfig(p=3, q=1, n_grid=(10,), strategies="continuous")
    assert cfg.strategies == ("continuous",)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(p=0),
        dict(q=4),
        dict(q=-1),
        dict(n_grid=()),
        dict(n_grid=(100, 100)),
        dict(n_grid=(200, 100)),
        dict(n_grid=(0, 10)),
        dict(omega_index=16),
        dict(omega_index=-1),
        dict(trials=0),
        dict(strategies=()),
        dict(strategies=("restart_record", "restart_record")),
        dict(strategies=("walk",)),
        dict(noise=()),
        dict(noise=("iid", "iid")),
        dict(gamma_override=0.0),
        dict(gamma_override=-2.0),
        dict(p=6.0),
        dict(q=1.0),
        dict(n_grid=(20, 200.7)),
        dict(num_samples=16.0),
        dict(omega_index=3.5),
        dict(trials=2.0),
        dict(seed=1.5),
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


def test_config_json_round_trip():
    cfg = small_config(noise=("iid", "ar1"), gamma_override=0.25)
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_from_json_rejects_unknown_keys_and_garbage():
    with pytest.raises(ConfigError):
        config_from_json('{"p": 3, "q": 1, "n_grid": [10], "bogus": 1}')
    with pytest.raises(ConfigError):
        config_from_json("not json at all")
    with pytest.raises(ConfigError):
        config_from_json('[1, 2, 3]')


def test_config_from_json_minimal():
    cfg = config_from_json('{"p": 3, "q": 1, "n_grid": [10, 20]}')
    assert cfg == ExperimentConfig(p=3, q=1, n_grid=(10, 20))


# ---------------------------------------------------------------------------
# gamma resolution


def test_resolve_gamma_override_passthrough():
    model = build_model(random_dag(3, 1, seed=4), NoiseSpec("iid"), seed=4)
    assert resolve_gamma(model, 0.5, override=0.125) == 0.125


def test_resolve_gamma_default_is_half_deficit_at_omega():
    model = build_model(random_dag(4, 2, seed=9), NoiseSpec("iid"), seed=9)
    omega = 2.0 * math.pi * 3.0 / 16.0
    assert resolve_gamma(model, omega) == default_gamma(model, [omega])


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_matches_inline_cell_oracle():
    cfg = small_config()
    records = run_experiment(cfg)
    by_cell = {(r.noise, r.strategy, r.n): r for r in records}
    omega = cfg.omega
    for noise in cfg.noise:
        code = NOISE_CODES[noise.kind]
        for strategy in cfg.strategies:
            for n in cfg.n_grid:
                succ = 0
                shd = 0
                for trial in range(cfg.trials):
                    dag = random_dag(
                        cfg.p, cfg.q, seed_path(cfg.seed, STREAM_MODEL, code, trial, 0)
                    )
                    model = build_model(
                        dag, noise, seed_path(cfg.seed, STREAM_MODEL, code, trial, 1)
                    )
                    gamma = default_gamma(model, [omega])
                    est = sample_psdm(
                        model,
                        strategy,
                        n,
                        cfg.num_samples,
                        omega,
                        seed_path(
                            cfg.seed,
                            STREAM_DATA,
                            code,
                            trial,
                            STRATEGY_CODES[strategy],
                            n,
                        ),
                    )
                    res = reconstruct(
                        est, ReconstructionParams(q=cfg.q, gamma=gamma, omega=omega)
                    )
                    succ += int(graph_equal(res.graph, model.dag))
                    shd += structural_hamming(res.graph, model.dag)
                rec = by_cell[(noise.kind, strategy, n)]
                assert rec.success_count == succ
                assert rec.mean_shd == shd / cfg.trials
                assert rec.empirical_recovery == succ / cfg.trials
                assert rec.p == cfg.p and rec.q == cfg.q
                assert rec.num_samples == cfg.num_samples
                assert rec.omega_index == cfg.omega_index
                assert rec.trials == cfg.trials


def test_run_experiment_row_order():
    cfg = small_config(noise=("iid", "ar1"), trials=2, n_grid=(5, 10))
    records = run_experiment(cfg, zero_wall_times=True)
    coords = [(r.noise, r.strategy, r.n) for r in records]
    expected = [
        (kind, strat, n)
        for kind in ("iid", "ar1")
        for strat in ("restart_record", "continuous")
        for n in (5, 10)
    ]
    assert coords == expected
    assert all(r.wall_time_ms == 0.0 for r in records)


def test_run_experiment_p1_always_recovers():
    cfg = ExperimentConfig(
        p=1, q=0, n_grid=(2, 4), num_samples=8, omega_index=1, trials=3, seed=5
    )
    for rec in run_experiment(cfg):
        assert rec.empirical_recovery == 1.0
        assert rec.success_count == rec.trials
        assert rec.mean_shd == 0.0


def test_run_experiment_gamma_override_blocks_all_edges():
    # every random_dag(3, 1) graph has exactly two edges, so an absurd
    # threshold forces SHD 2 and zero recovery in every trial
    cfg = small_config(p=3, q=1, n_grid=(400,), trials=5, gamma_override=50.0)
    for rec in run_experiment(cfg):
        assert rec.empirical_recovery == 0.0
        assert rec.mean_shd == 2.0


def test_run_experiment_csv_bytes_deterministic(tmp_path):
    cfg = small_config(trials=3, n_grid=(10, 40))
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    records_to_csv(run_experiment(cfg, zero_wall_times=True), path_a)
    records_to_csv(run_experiment(cfg, zero_wall_times=True), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert lines[0] == EXPERIMENT_CSV_HEADER
    assert (
        lines[0]
        == "p,q,noise,strategy,N,omega_index,n,trials,success_count,"
        "empirical_recovery,mean_shd,wall_time_ms"
    )
    assert len(lines) == 1 + len(cfg.noise) * len(cfg.strategies) * len(cfg.n_grid)
    first = lines[1].split(",")
    assert first[0] == "4" and first[2] == "iid" and first[4] == "16"


def test_record_validation():
    kwargs = dict(
        p=3,
        q=1,
        noise="iid",
        strategy="continuous",
        num_samples=16,
        omega_index=3,
        n=10,
        trials=4,
        success_count=2,
        empirical_recovery=0.5,
        mean_shd=1.0,
        wall_time_ms=0.0,
    )
    ExperimentRecord(**kwargs)
    with pytest.raises(ConfigError):
        ExperimentRecord(**{**kwargs, "success_count": 5})
    with pytest.raises(ConfigError):
        ExperimentRecord(**{**kwargs, "empirical_recovery": 1.5})
    with pytest.raises(ConfigError):
        ExperimentRecord(**{**kwargs, "empirical_recovery": 0.75})


# ---------------------------------------------------------------------------
# tail_experiment


TAIL_ARGS = dict(p=2, n=400, num_samples=16, trials=100, q=1, seed=9)
TAIL_OMEGA = 2.0 * math.pi * 3.0 / 16.0


def test_tail_requires_enough_trials():
    with pytest.raises(ConfigError):
        tail_experiment(omega=TAIL_OMEGA, **{**TAIL_ARGS, "trials": 99})


def test_tail_rows_shape():
    rows = tail_experiment(omega=TAIL_OMEGA, **TAIL_ARGS)
    assert len(rows) == 20
    ts = [r.t for r in rows]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert rows[0].empirical_restart_record == 1.0
    assert rows[0].empirical_continuous == 1.0
    assert rows[0].bound == 1.0
    for a, b in zip(rows, rows[1:]):
        assert b.empirical_restart_record <= a.empirical_restart_record
        assert b.empirical_continuous <= a.empirical_continuous
        assert 0.0 <= b.bound <= 1.0
    # grid reaches past the empirical support and past the bound's vacuous
    # region, so the last row is informative on both axes
    assert rows[-1].empirical_restart_record == 0.0
    assert rows[-1].bound < 1.0


def test_tail_empirical_matches_deviation_counts():
    rows = tail_experiment(omega=TAIL_OMEGA, **TAIL_ARGS)
    # rebuild the model exactly as the harness does (trial index 0)
    code = NOISE_CODES["iid"]
    dag = random_dag(2, 1, seed_path(9, STREAM_MODEL, code, 0, 0))
    model = build_model(dag, NoiseSpec("iid"), seed_path(9, STREAM_MODEL, code, 0, 1))
    for strategy, attr in (
        ("restart_record", "empirical_restart_record"),
        ("continuous", "empirical_continuous"),
    ):
        devs = tail_deviations(
            model, strategy, n=400, num_samples=16, omega=TAIL_OMEGA, seed=9, trials=100
        )
        assert devs.shape == (100,)
        for row in rows:
            assert getattr(row, attr) == float(np.mean(devs >= row.t))
    # bound column is the calculator evaluated at the model's own M
    for row in rows[1:]:
        assert row.bound == psdm_tail_bound(
            t=row.t, n=400, p=2, m_bound=model.constants.m_bound
        )


def test_tail_deviations_are_norms_of_centered_estimates():
    code = NOISE_CODES["iid"]
    dag = random_dag(2, 1, seed_path(9, STREAM_MODEL, code, 0, 0))
    model = build_model(dag, NoiseSpec("iid"), seed_path(9, STREAM_MODEL, code, 0, 1))
    devs = tail_deviations(
        model,
        "restart_record",
        n=30,
        num_samples=16,
        omega=TAIL_OMEGA,
        seed=9,
        trials=3,
    )
    expected = expected_psdm_finite_n(model, TAIL_OMEGA, 16)
    for r in range(3):
        est = sample_psdm(
            model,
            "restart_record",
            30,
            16,
            TAIL_OMEGA,
            seed_path(9, STREAM_TAIL, STRATEGY_CODES["restart_record"], r),
        )
        assert devs[r] == spectral_norm(est.matrix - expected)


def test_tail_determinism_and_csv(tmp_path):
    rows_a = tail_experiment(omega=TAIL_OMEGA, **TAIL_ARGS)
    rows_b = tail_experiment(omega=TAIL_OMEGA, **TAIL_ARGS)
    assert rows_a == rows_b
    path = tmp_path / "tail.csv"
    tail_to_csv(rows_a, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,empirical_restart_record,empirical_continuous,bound"
    assert len(lines) == 21
    path2 = tmp_path / "tail2.csv"
    tail_to_csv(rows_b, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_tail_small_run_dominated_by_bound():
    for row in tail_experiment(omega=TAIL_OMEGA, **TAIL_ARGS):
        assert row.empirical_restart_record <= row.bound
        assert row.empirical_continuous <= row.bound


def test_tail_row_is_plain_dataclass():
    row = TailRow(
        t=0.5, empirical_restart_record=0.2, empirical_continuous=0.3, bound=1.0
    )
    assert row.t == 0.5
    doc = json.loads(json.dumps(row.__dict__))
    assert set(doc) == {
        "t",
        "empirical_restart_record",
        "empirical_continuous",
        "bound",
    }
