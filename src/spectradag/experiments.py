"""Monte Carlo recovery experiments and concentration tail tables.

Stream derivation contract (pinned by the test suite's inline oracle):

- model for (noise kind, trial):   graph   <- (seed, STREAM_MODEL, kind_code, trial, 0)
                                   weights <- (seed, STREAM_MODEL, kind_code, trial, 1)
  `trial_model` is the one implementation of these two streams; the
  experiment, the tail table and `spectradag gen` all build models with it.
- recovery data for a cell:        (seed, STREAM_DATA, kind_code, trial, strategy_code, n)
- tail replicate r:                (seed, STREAM_TAIL, strategy_code, r)

Each stream feeds one `sample_psdm` call. A restart-record draw consumes
n*2p normals, its n DFT rows drawn from their exact law; a continuous draw
consumes the (n*N + p - 1)*p normals of one realization (p more for the
stationary start of AR(1) noise).

Models are therefore shared across strategies and trajectory counts (paired
comparisons), while every data draw is independent. Execution is sequential;
because each job's stream is derived, not consumed in order, results do not
depend on scheduling, and a parallel runner could produce the same records.

`run_experiment` measures wall time per cell by default: the cell's sampling
and reconstruction, not the models and thresholds built before a noise
kind's first cell. Byte-identical CSV output across runs requires
`zero_wall_times=True` (the CLI does this unless asked for timings).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import psdm_tail_bound
from .cpsd import default_gamma, sample_psdm
from .errors import ConfigError, as_int
from .graphs import graph_equal, random_dag, structural_hamming
from .linalg import spectral_norm
from .models import NoiseSpec, build_model, expected_psdm_finite_n
from .reconstruct import ReconstructionParams, reconstruct
from .seeding import (
    NOISE_CODES,
    STRATEGY_CODES,
    STREAM_DATA,
    STREAM_MODEL,
    STREAM_TAIL,
    seed_path,
)
from .simulate import STRATEGIES

EXPERIMENT_CSV_HEADER = (
    "p,q,noise,strategy,N,omega_index,n,trials,success_count,"
    "empirical_recovery,mean_shd,wall_time_ms"
)
TAIL_CSV_HEADER = "t,empirical_restart_record,empirical_continuous,bound"
TAIL_GRID_POINTS = 20

def _as_noise(value) -> NoiseSpec:
    if isinstance(value, NoiseSpec):
        return value
    if isinstance(value, str):
        return NoiseSpec(kind=value)
    if isinstance(value, dict):
        try:
            return NoiseSpec(**value)
        except TypeError as exc:
            raise ConfigError(f"bad noise mapping {value!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret {value!r} as a noise spec")


def _as_noise_tuple(value) -> tuple[NoiseSpec, ...]:
    if isinstance(value, (NoiseSpec, str, dict)):
        value = (value,)
    specs = tuple(_as_noise(v) for v in value)
    if not specs:
        raise ConfigError("at least one noise spec is required")
    kinds = [s.kind for s in specs]
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"duplicate noise kinds in {kinds}")
    return specs


def _as_strategies(value) -> tuple[str, ...]:
    if isinstance(value, str):
        value = (value,)
    strategies = tuple(str(v) for v in value)
    if not strategies:
        raise ConfigError("at least one sampling strategy is required")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"duplicate strategies in {strategies}")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {s!r}")
    return strategies


@dataclass(frozen=True)
class ExperimentConfig:
    """One recovery-experiment campaign: graph family, sampling, and grid."""

    p: int
    q: int
    n_grid: tuple[int, ...]
    noise: tuple[NoiseSpec, ...] = (NoiseSpec("iid"),)
    strategies: tuple[str, ...] = STRATEGIES
    num_samples: int = 64
    omega_index: int = 17
    trials: int = 50
    seed: int = 0
    gamma_override: float | None = None

    def __post_init__(self):
        for name in ("p", "q", "num_samples", "omega_index", "trials", "seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if not (0 <= self.q <= self.p - 1):
            raise ConfigError(f"q must satisfy 0 <= q <= p-1, got q={self.q}")
        grid = tuple(as_int("n_grid entry", n) for n in self.n_grid)
        if not grid:
            raise ConfigError("n_grid must be nonempty")
        if any(n < 1 for n in grid):
            raise ConfigError(f"n_grid entries must be >= 1, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"n_grid must be strictly ascending, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "noise", _as_noise_tuple(self.noise))
        object.__setattr__(self, "strategies", _as_strategies(self.strategies))
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if not (0 <= self.omega_index < self.num_samples):
            raise ConfigError(
                f"omega_index must be in [0, {self.num_samples}), got {self.omega_index}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.gamma_override is not None and not 0 < self.gamma_override < np.inf:
            raise ConfigError(
                f"gamma_override must be finite and > 0 when given, got {self.gamma_override}"
            )

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.omega_index / self.num_samples


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(asdict(config), indent=2, sort_keys=True)


def config_from_mapping(doc: dict) -> ExperimentConfig:
    """Build a config from a plain mapping, rejecting unknown keys.

    None values mean "not provided" and fall back to the field default,
    so flag-over-file overlays can pass every key unconditionally.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object / mapping")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    kwargs = {k: v for k, v in doc.items() if v is not None}
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def config_from_json(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_mapping(doc)


@dataclass(frozen=True)
class ExperimentRecord:
    """One CSV row: a (noise, strategy, n) cell aggregated over trials."""

    p: int
    q: int
    noise: str
    strategy: str
    num_samples: int
    omega_index: int
    n: int
    trials: int
    success_count: int
    empirical_recovery: float
    mean_shd: float
    wall_time_ms: float

    def __post_init__(self):
        if not (0 <= self.success_count <= self.trials):
            raise ConfigError(
                f"success_count {self.success_count} outside [0, {self.trials}]"
            )
        if not (0.0 <= self.empirical_recovery <= 1.0):
            raise ConfigError(
                f"empirical_recovery must be in [0, 1], got {self.empirical_recovery}"
            )
        if self.empirical_recovery != self.success_count / self.trials:
            raise ConfigError("empirical_recovery must equal success_count/trials")
        if self.mean_shd < 0 or self.wall_time_ms < 0:
            raise ConfigError("mean_shd and wall_time_ms must be >= 0")


def resolve_gamma(model, omega: float, override: float | None = None) -> float:
    """Cell threshold: the override verbatim, else half the deficit at omega."""
    if override is not None:
        if not 0 < override < np.inf:
            raise ConfigError(f"gamma override must be finite and > 0, got {override}")
        return float(override)
    return default_gamma(model, [float(omega)])


def trial_model(p: int, q: int, noise, seed: int, trial: int):
    """The model that trial `trial` of noise kind `noise` uses under root `seed`."""
    noise = _as_noise(noise)
    code = NOISE_CODES[noise.kind]
    dag = random_dag(p, q, seed_path(seed, STREAM_MODEL, code, trial, 0))
    return build_model(dag, noise, seed_path(seed, STREAM_MODEL, code, trial, 1))


def run_experiment(
    config: ExperimentConfig, *, zero_wall_times: bool = False
) -> list[ExperimentRecord]:
    """All (noise, strategy, n) cells of the campaign, in deterministic order.

    Each noise kind's models and thresholds are built once, before its
    cells, and reused across every strategy and trajectory count.
    """
    omega = config.omega
    records = []
    for noise in config.noise:
        code = NOISE_CODES[noise.kind]
        models = [
            trial_model(config.p, config.q, noise, config.seed, trial)
            for trial in range(config.trials)
        ]
        params = [
            ReconstructionParams(
                q=config.q,
                gamma=resolve_gamma(model, omega, config.gamma_override),
                omega=omega,
            )
            for model in models
        ]
        for strategy in config.strategies:
            strat_code = STRATEGY_CODES[strategy]
            for n in config.n_grid:
                start = time.perf_counter()
                successes = 0
                shd_total = 0
                for trial, (model, trial_params) in enumerate(zip(models, params)):
                    est = sample_psdm(
                        model,
                        strategy,
                        n,
                        config.num_samples,
                        omega,
                        seed_path(
                            config.seed, STREAM_DATA, code, trial, strat_code, n
                        ),
                    )
                    graph = reconstruct(est, trial_params).graph
                    successes += int(graph_equal(graph, model.dag))
                    shd_total += structural_hamming(graph, model.dag)
                elapsed_ms = (
                    0.0 if zero_wall_times else (time.perf_counter() - start) * 1000.0
                )
                records.append(
                    ExperimentRecord(
                        p=config.p,
                        q=config.q,
                        noise=noise.kind,
                        strategy=strategy,
                        num_samples=config.num_samples,
                        omega_index=config.omega_index,
                        n=n,
                        trials=config.trials,
                        success_count=successes,
                        empirical_recovery=successes / config.trials,
                        mean_shd=shd_total / config.trials,
                        wall_time_ms=elapsed_ms,
                    )
                )
    return records


def _write_rows(path, header: str, rows) -> None:
    """One CSV line per dataclass row: floats as repr(float(v)), the rest as str(v)."""
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(v)) if isinstance(v, float) else str(v) for v in astuple(row)
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def records_to_csv(records, path) -> None:
    _write_rows(path, EXPERIMENT_CSV_HEADER, records)


@dataclass(frozen=True)
class TailRow:
    t: float
    empirical_restart_record: float
    empirical_continuous: float
    bound: float


def tail_deviations(
    model, strategy: str, *, n: int, num_samples: int, omega: float, seed: int, trials: int
) -> np.ndarray:
    """Spectral-norm deviations of `trials` independent PSDM estimates from
    the finite-length expected PSDM."""
    expected = expected_psdm_finite_n(model, float(omega), int(num_samples))
    strat_code = STRATEGY_CODES[strategy]
    devs = np.empty(int(trials))
    for r in range(int(trials)):
        est = sample_psdm(
            model,
            strategy,
            n,
            num_samples,
            omega,
            seed_path(seed, STREAM_TAIL, strat_code, r),
        )
        devs[r] = spectral_norm(est.matrix - expected)
    return devs


def tail_experiment(
    *,
    p: int,
    n: int,
    num_samples: int,
    trials: int,
    omega: float,
    seed: int,
    q: int = 2,
    noise=NoiseSpec("iid"),
) -> list[TailRow]:
    """Empirical tail of the estimator deviation under both strategies, next
    to the theoretical envelope (clipped at 1).

    The t grid spans both the empirical support and the envelope's
    transition out of its vacuous region, so the table always shows the
    bound doing work at its top end.
    """
    if trials < 100:
        raise ConfigError(f"tail estimation needs trials >= 100, got {trials}")
    model = trial_model(p, q, noise, seed, 0)
    devs = {
        strategy: tail_deviations(
            model,
            strategy,
            n=n,
            num_samples=num_samples,
            omega=omega,
            seed=seed,
            trials=trials,
        )
        for strategy in STRATEGIES
    }
    m_bound = model.constants.m_bound
    t_vacuous = m_bound * np.sqrt(768.0 * p / n)
    t_max = max(2.0 * max(float(d.max()) for d in devs.values()), 1.5 * t_vacuous)
    rows = []
    for t in np.linspace(0.0, t_max, TAIL_GRID_POINTS):
        rows.append(
            TailRow(
                t=float(t),
                empirical_restart_record=float(np.mean(devs["restart_record"] >= t)),
                empirical_continuous=float(np.mean(devs["continuous"] >= t)),
                bound=psdm_tail_bound(t=float(t), n=n, p=p, m_bound=m_bound),
            )
        )
    return rows


def tail_to_csv(rows, path) -> None:
    _write_rows(path, TAIL_CSV_HEADER, rows)
