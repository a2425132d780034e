"""Trajectory generation for DAG-structured linear dynamical systems.

Two sampling strategies:

* ``restart_record``: n independent realizations, N recorded samples each.
* ``continuous``: one realization whose n*N consecutive recorded samples
  are split into n segments (adjacent segments are correlated).

Because the coefficient matrix is supported on a DAG it is nilpotent
(B^p = 0), so the state is the finite moving average
x(t) = sum_{k<p} B^k e(t-k). Sampling that form with exactly stationary
noise yields the stationary process directly, with no burn-in and no
transient approximation.

Generation is blocked to bound memory. Draw order is block-size invariant
(each restart-record trajectory consumes a contiguous run of normals; the
continuous realization consumes one sequential stream), so the streaming
consumer `iter_trajectory_blocks` reproduces `simulate` exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import LdsModel, NoiseSpec, model_hash
from .seeding import rng_from

STRATEGIES = ("restart_record", "continuous")

# Noise-block budget: ~32 MB of float64 per generated block.
_TARGET_BLOCK_ELEMS = 4_000_000


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """n trajectories of N samples of a p-dimensional state, plus provenance."""

    strategy: str
    n: int
    num_samples: int
    data: np.ndarray
    seed: object

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 3 or data.shape[:2] != (self.n, self.num_samples):
            raise ConfigError(
                f"data shape {data.shape} does not match (n={self.n}, N={self.num_samples}, p)"
            )

    @property
    def p(self) -> int:
        return self.data.shape[2]


def _b_powers(b: np.ndarray) -> list[np.ndarray]:
    """[I, B, B^2, ...] stopping at the first exactly-zero power."""
    p = b.shape[0]
    powers = [np.eye(p)]
    cur = b.copy()
    for _ in range(1, p):
        if not np.any(cur):
            break
        powers.append(cur)
        cur = cur @ b
    return powers


def _stationary_sd(noise: NoiseSpec) -> float:
    """Marginal standard deviation of the (scalar) noise process."""
    if noise.kind == "iid":
        return float(np.sqrt(noise.sigma_w))
    return float(np.sqrt(noise.sigma_w / (1.0 - noise.alpha**2)))


def _rr_noise_block(noise: NoiseSpec, p: int, rng, rows: int, length: int) -> np.ndarray:
    """Independent stationary noise paths, one per trajectory row.

    Each row consumes a contiguous run of standard normals, so splitting
    the rows across blocks never changes the values drawn for a row.
    """
    sd = np.sqrt(noise.sigma_w)
    if noise.kind == "iid":
        return sd * rng.standard_normal((rows, length, p))
    from scipy.signal import lfilter  # deferred: the import costs over a second

    z = rng.standard_normal((rows, length + 1, p))
    e_init = _stationary_sd(noise) * z[:, 0, :]
    w = sd * z[:, 1:, :]
    e, _ = lfilter([1.0], [1.0, -noise.alpha], w, axis=1, zi=(noise.alpha * e_init)[:, None, :])
    return e


class _NoiseStream:
    """Sequential stationary noise rows of one realization, resumable."""

    def __init__(self, noise: NoiseSpec, p: int, rng):
        self._noise = noise
        self._p = p
        self._rng = rng
        self._zi = None

    def take(self, length: int) -> np.ndarray:
        if length == 0:
            return np.zeros((0, self._p))
        sd = np.sqrt(self._noise.sigma_w)
        if self._noise.kind == "iid":
            return sd * self._rng.standard_normal((length, self._p))
        from scipy.signal import lfilter  # deferred: the import costs over a second

        if self._zi is None:
            e_init = _stationary_sd(self._noise) * self._rng.standard_normal(self._p)
            self._zi = (self._noise.alpha * e_init)[None, :]
        w = sd * self._rng.standard_normal((length, self._p))
        e, self._zi = lfilter([1.0], [1.0, -self._noise.alpha], w, axis=0, zi=self._zi)
        return e


def _combine(powers, e_full: np.ndarray, offset: int, count: int) -> np.ndarray:
    """x[.., s, :] = sum_k e_full[.., offset+s-k, :] @ powers[k].T for s < count."""
    x = e_full[..., offset : offset + count, :].copy()
    for k in range(1, len(powers)):
        x += e_full[..., offset - k : offset - k + count, :] @ powers[k].T
    return x


def _validate_args(strategy, n, num_samples):
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")


def iter_trajectory_blocks(
    model: LdsModel,
    strategy: str,
    n: int,
    num_samples: int,
    seed,
    max_block_rows=None,
):
    """Yield the trajectory array in (rows, N, p) blocks, bounding memory.

    Concatenating the blocks reproduces ``simulate(...).data`` exactly,
    independent of the block size.
    """
    _validate_args(strategy, n, num_samples)
    p = model.p
    big_n = int(num_samples)
    rng = rng_from(seed)
    powers = _b_powers(model.b)
    pre = p - 1

    if strategy == "restart_record":
        length = pre + big_n
        rows_budget = max(1, _TARGET_BLOCK_ELEMS // max(length * p, 1))
        if max_block_rows is not None:
            rows_budget = min(rows_budget, int(max_block_rows))
        done = 0
        while done < n:
            rows = min(rows_budget, n - done)
            path = _rr_noise_block(model.noise, p, rng, rows, length)
            yield _combine(powers, path, pre, big_n)
            done += rows
        return

    # continuous: one realization; carry the last p-1 noise rows across blocks
    stream = _NoiseStream(model.noise, p, rng)
    carry = stream.take(pre)
    segs_budget = max(1, _TARGET_BLOCK_ELEMS // max(big_n * p, 1))
    if max_block_rows is not None:
        segs_budget = min(segs_budget, int(max_block_rows))
    done = 0
    while done < n:
        segs = min(segs_budget, n - done)
        count = segs * big_n
        path = stream.take(count)
        e_full = np.concatenate([carry, path], axis=0)
        x = _combine(powers, e_full, pre, count)
        yield x.reshape(segs, big_n, p)
        carry = e_full[len(e_full) - pre :]
        done += segs


def simulate(
    model: LdsModel,
    strategy: str,
    n: int,
    num_samples: int,
    seed,
) -> TrajectorySet:
    """Sample n trajectories of N = num_samples steps from the model.

    Parameters
    ----------
    strategy : "restart_record" or "continuous"
    seed : int, entropy tuple, or numpy Generator

    Returns
    -------
    TrajectorySet with data of shape (n, N, p). Deterministic given seed.
    """
    blocks = list(iter_trajectory_blocks(model, strategy, n, num_samples, seed))
    data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    return TrajectorySet(
        strategy=strategy,
        n=int(n),
        num_samples=int(num_samples),
        data=data,
        seed=seed,
    )


def save_trajectories(traj: TrajectorySet, directory, model: LdsModel | None = None) -> None:
    """Write one CSV per trajectory (columns t,node0..node{p-1}) plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for r in range(traj.n):
        name = f"traj_{r:05d}.csv"
        names.append(name)
        with open(directory / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"node{v}" for v in range(traj.p)])
            for t in range(traj.num_samples):
                writer.writerow([t] + [repr(float(v)) for v in traj.data[r, t]])
    seed = traj.seed
    if not isinstance(seed, (int, str, list, tuple, type(None))):
        seed = str(seed)
    if isinstance(seed, tuple):
        seed = list(seed)
    manifest = {
        "strategy": traj.strategy,
        "n": traj.n,
        "N": traj.num_samples,
        "seed": seed,
        "model_hash": model_hash(model) if model is not None else None,
        "files": names,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_trajectories(directory) -> tuple[TrajectorySet, dict]:
    """Read a directory written by `save_trajectories`."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        rows = []
        for name in manifest["files"]:
            table = np.loadtxt(directory / name, delimiter=",", skiprows=1, ndmin=2)
            rows.append(table[:, 1:])
        data = np.stack(rows, axis=0)
        seed = manifest.get("seed")
        traj = TrajectorySet(
            strategy=manifest["strategy"],
            n=int(manifest["n"]),
            num_samples=int(manifest["N"]),
            data=data,
            seed=tuple(seed) if isinstance(seed, list) else seed,
        )
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed trajectory directory {directory}: {exc}") from exc
    return traj, manifest
