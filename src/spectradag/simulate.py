"""Trajectory generation for DAG-structured linear dynamical systems.

Two sampling strategies:

* ``restart_record``: n independent realizations, N recorded samples each.
* ``continuous``: one realization whose n*N consecutive recorded samples
  are split into n segments (adjacent segments are correlated).

Each trajectory is the VAR recursion x(t) = B x(t-1) + e(t) run from x = 0
over its noise window, the p-1 steps before its N recorded ones and those
N, in one pass along time per edge of B, children in topological order.
B is supported on a DAG, so it is nilpotent (B^p = 0) and after the p-1
leading steps x(t) = sum_{k<p} B^k e(t-k), a finite moving average: with
exactly stationary noise, the stationary process, with no burn-in.

One noise generator serves both strategies: a restart-record block draws
fresh stationary realizations, one window per row, and a continuous block
resumes the one realization from the carried AR(1) filter state and p-1
noise steps. Generation runs in blocks of about 2^17 values (1 MiB), small
enough that a block's noise, the recursion over it and its DFT in
`cpsd.sample_psdm` stay in one core's L2 cache: each pass over a block
then reads cache, not DRAM. A window's values depend only on its own
noise, and draw order is block-size invariant (each restart-record
trajectory consumes a contiguous run of normals; the continuous
realization consumes one sequential stream), so the streaming consumer
`iter_trajectory_blocks` reproduces `simulate` exactly.

`save_trajectories` stores a set as one array file, trajectories.npy,
next to a manifest.json of its strategy, sizes, seed and model hash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import LdsModel, NoiseSpec, model_hash
from .seeding import rng_from

STRATEGIES = ("restart_record", "continuous")

# Noise-block budget: 2^17 float64 (1 MiB) per generated block, so that a
# block's noise, the recursion over it and its DFT stay in one core's L2
# cache instead of streaming through DRAM. On a Xeon with 2 MiB of L2 per
# core, 2^16 to 2^18 timed alike and all beat 32 MB blocks.
_TARGET_BLOCK_ELEMS = 2**17


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


def _noise(noise: NoiseSpec, rng, rows: int, length: int, p: int, zi=None):
    """(rows, length, p) stationary noise and the AR(1) filter state after it.

    With ``zi=None`` every row is a fresh realization: its initial state is
    drawn from the stationary law just before its own path, so each row
    consumes a contiguous run of standard normals and splitting rows across
    blocks never changes a row's values. Passing back the returned state
    continues the same realizations. IID noise carries no state (None).

    The array is a view of a (p, rows, length) one, so that each node's
    series is contiguous for lfilter and for the recursion.
    """
    if noise.kind == "ar1" and zi is None:
        z = rng.standard_normal((rows, length + 1, p))
        sd_stat = float(np.sqrt(noise.sigma_w / (1.0 - noise.alpha**2)))
        zi = noise.alpha * (sd_stat * z[:, :1, :])
        w = z[:, 1:, :]
    else:
        w = rng.standard_normal((rows, length, p))
    sd = np.sqrt(noise.sigma_w)
    if noise.kind == "iid" or length == 0:
        # an empty input skips lfilter, which returns a garbage final state for it
        return np.multiply(w.transpose(2, 0, 1), sd, order="C").transpose(1, 2, 0), zi
    w *= sd
    from scipy.signal import lfilter  # deferred: the import costs over a second

    y, zi = lfilter([1.0], [1.0, -noise.alpha], w.transpose(2, 0, 1), axis=2,
                    zi=zi.transpose(2, 0, 1))
    return y.transpose(1, 2, 0), zi.transpose(1, 2, 0)


def iter_trajectory_blocks(
    model: LdsModel,
    strategy: str,
    n: int,
    num_samples: int,
    seed,
    max_block_rows=None,
):
    """Yield the trajectory array in (rows, N, p) blocks, bounding memory.

    A restart-record block runs the recursion in place over ``rows`` fresh
    windows. A continuous block runs it once over rows*N new steps of the
    one realization and the p-1 carried before them: a node at topological
    depth d reads only d steps back, so from step p-1 on each value takes
    the same operations as in its segment's own window. Concatenating the
    blocks reproduces ``simulate(...).data`` exactly, for any block size.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    p = model.p
    big_n = int(num_samples)
    rng = rng_from(seed)
    # children in topological order: a node's whole series then needs only
    # parent series that are already final
    edges = [(j, k, model.b[j, k]) for j in model.dag.order for k in np.flatnonzero(model.b[j])]
    pre = p - 1
    restart = strategy == "restart_record"

    row_elems = (pre + big_n) * p if restart else big_n * p
    rows_budget = max(1, _TARGET_BLOCK_ELEMS // row_elems)
    if max_block_rows is not None:
        rows_budget = min(rows_budget, int(max_block_rows))
    if not restart:
        carry, zi = _noise(model.noise, rng, 1, pre, p)
    done = 0
    while done < n:
        rows = min(rows_budget, n - done)
        if restart:
            x, _ = _noise(model.noise, rng, rows, pre + big_n, p)
        else:
            path, zi = _noise(model.noise, rng, 1, rows * big_n, p, zi)
            # concatenate keeps the node-major layout of its inputs
            x = np.concatenate([carry, path], axis=1)
            carry = x[:, x.shape[1] - pre :].copy(order="K")
        # x(t) = B x(t-1) + e(t), one pass along time per edge of B
        for j, k, coef in edges:
            x[:, 1:, j] += coef * x[:, :-1, k]
        yield x[:, pre:] if restart else x[0, pre:].reshape(rows, big_n, p)
        done += rows


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
    data = np.concatenate(list(iter_trajectory_blocks(model, strategy, n, num_samples, seed)))
    return TrajectorySet(
        strategy=strategy,
        n=int(n),
        num_samples=int(num_samples),
        data=data,
        seed=seed,
    )


def save_trajectories(traj: TrajectorySet, directory, model: LdsModel | None = None) -> None:
    """Write the (n, N, p) array to trajectories.npy, plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "trajectories.npy", traj.data, allow_pickle=False)
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
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_trajectories(directory) -> tuple[TrajectorySet, dict]:
    """Read a directory written by `save_trajectories`.

    A missing file raises OSError; a malformed manifest or array raises
    ConfigError.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        if not isinstance(manifest, dict):
            raise ConfigError(f"manifest in {directory} is not a JSON object")
        data = np.load(directory / "trajectories.npy", allow_pickle=False)
        if data.dtype.kind not in "fiu":
            raise ConfigError(f"trajectories.npy in {directory} holds {data.dtype}, not reals")
        seed = manifest.get("seed")
        traj = TrajectorySet(
            strategy=manifest["strategy"],
            n=int(manifest["n"]),
            num_samples=int(manifest["N"]),
            data=data,
            seed=tuple(seed) if isinstance(seed, list) else seed,
        )
    except (KeyError, ValueError, TypeError, EOFError) as exc:
        raise ConfigError(f"malformed trajectory directory {directory}: {exc}") from exc
    return traj, manifest
