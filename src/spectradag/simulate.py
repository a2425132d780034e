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

One noise generator serves both strategies: a restart-record unit of rows
draws fresh stationary realizations, one window per row, and a continuous
unit resumes the one realization from the carried AR(1) state y(t-1) and
p-1 noise steps. AR(1) noise is filtered by a chunked numpy scan (see
`_noise`), so sampling needs numpy alone. Generation runs in units of
about 2^17 values (1 MiB), their normals drawn into one scratch buffer
reused for the whole call, small enough that a unit's noise, the
recursion over it and its DFT in `cpsd.sample_psdm` stay in one core's
L2 cache: each pass over a unit then reads cache, not DRAM. (That
streaming serves continuous sampling; `sample_psdm` draws restart-record
estimates from their exact law, with no trajectories.) A unit's size
depends on N and p alone, and `iter_trajectory_blocks` yields one block
per unit, which `simulate` concatenates. Each restart-record
trajectory consumes a contiguous run of normals and the continuous
realization one sequential stream.

`save_trajectories` stores a set as one array file, trajectories.npy,
next to a manifest.json of its strategy, sizes, seed and model hash.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, as_int
from .models import LdsModel, NoiseSpec, model_hash
from .seeding import rng_from

STRATEGIES = ("restart_record", "continuous")

# Noise-unit budget: 2^17 float64 (1 MiB) per generated unit of rows, so
# that a unit's noise, the recursion over it and its DFT stay in one core's
# L2 cache instead of streaming through DRAM. On a Xeon with 2 MiB of L2 per
# core, 2^16 to 2^18 timed alike and all beat 32 MB blocks.
_TARGET_BLOCK_ELEMS = 2**17

# Steps per chunk of the AR(1) scan: every N=64 restart-record window up to
# p=65 is one chunk, and long rows still give each step many lanes.
_SCAN_CHUNK = 128


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


def _scratch(bufs: dict, key: str, shape) -> np.ndarray:
    """A C-contiguous array of ``shape`` over the reusable flat buffer bufs[key]."""
    size = math.prod(shape)
    if key not in bufs or bufs[key].size < size:
        bufs[key] = np.empty(size)
    return bufs[key][:size].reshape(shape)


def _chunk_views(rowwise: np.ndarray, chunks: np.ndarray):
    """Matching views of rowwise (rows, L, p) and the time-major chunk array
    chunks (c, p, rows, nck): the full chunks, then the partial last one."""
    rows, length, p = rowwise.shape
    c, nck = chunks.shape[0], chunks.shape[3]
    full = length // c
    pairs = [(rowwise[:, : full * c].reshape(rows, full, c, p).transpose(2, 3, 0, 1),
              chunks[..., :full])]
    if full < nck:
        pairs.append((rowwise[:, full * c :].transpose(1, 2, 0), chunks[: length - full * c, ..., full]))
    return pairs


def _chain(v: np.ndarray, gain: np.ndarray) -> None:
    """In place along the last axis: v_k += gain_k * v_{k-1}, k = 1, 2, ...,
    with the result of each step feeding the next. By doubling, in
    log2(length) vector steps rather than one Python step per element;
    gain is consumed."""
    d = 1
    while d < v.shape[-1]:
        v[..., d:] += gain[d:] * v[..., :-d]
        gain[d:] *= gain[:-d]
        d *= 2


def _noise(noise: NoiseSpec, rng, rows: int, length: int, p: int, zi=None, out=None, bufs=None):
    """(rows, length, p) stationary noise and the AR(1) state y(t-1) after it.

    With ``zi=None`` every row is a fresh realization: its initial state
    y(-1) is drawn from the stationary law just before its own path, so each
    row consumes a contiguous run of standard normals; the state returned is
    each row's last value, (rows, p). Passing back a (1, p) state continues
    that realization, the rows following each other in order, and the state
    returned is the last row's last value. IID noise carries no state (None).

    The state is y(t-1) itself, not lfilter's alpha y(t-1). The AR(1)
    filter y(t) = w(t) + alpha y(t-1) runs as a scan over a time-major copy
    of the scaled normals, one vector step per time step across all lanes.
    Each row is cut into chunks of _SCAN_CHUNK steps counted from its start,
    and all chunks are scanned from zero at once, except that a fresh row's
    first chunk starts from its state: a restart-record window of one chunk
    is thus the plain recursion from y(-1), bit for bit what scipy's lfilter
    gave. The carry into every other chunk, y just before it, is chained
    through the chunk ends by `_chain` (within a row, or across the rows of
    a continued realization in order), and alpha^(t+1) carry is added at
    the chunk's step t. Those values move by rounding only, but the chain's
    rounding depends on the rows of the call, so a continued realization
    repeats its bits only when it is split into calls the same way.

    The result goes to ``out``, a (rows, length, p) view of any strides, or
    by default to a view of a fresh (p, rows, length) array, each node's
    series contiguous for the recursion. ``bufs`` keeps the scratch arrays,
    the normals and the scan, for reuse by later calls.
    """
    bufs = {} if bufs is None else bufs
    if out is None:
        out = np.empty((p, rows, length)).transpose(1, 2, 0)
    fresh = noise.kind == "ar1" and zi is None
    z = _scratch(bufs, "draw", (rows, length + fresh, p))
    rng.standard_normal(out=z)
    sd = np.sqrt(noise.sigma_w)
    if noise.kind == "iid":
        # along the node-major output, which iterates faster than along z
        np.multiply(z.transpose(2, 0, 1), sd, out=out.transpose(2, 0, 1))
        return out, None
    alpha = noise.alpha
    if fresh:
        zi = float(np.sqrt(noise.sigma_w / (1.0 - alpha**2))) * z[:, 0, :]
        z = z[:, 1:]
    if length == 0:
        return out, zi.copy()
    c = min(_SCAN_CHUNK, length)
    nck = -(-length // c)
    rem = length - (nck - 1) * c
    scan = _scratch(bufs, "scan", (c, p, rows, nck))
    for src, dst in _chunk_views(z, scan):
        np.multiply(src, sd, out=dst)
    scan[rem:, ..., -1] = 0.0
    if fresh:
        scan[0, ..., 0] += alpha * zi.T
    steps, step = list(scan), np.empty(scan.shape[1:])
    for prev, cur in zip(steps, steps[1:]):
        np.multiply(prev, alpha, out=step)
        cur += step
    if nck > 1 or not fresh:
        # carry[k] = end[k-1] + alpha^len(k-1) carry[k-1], in stream order
        carry = np.empty((p, rows, nck))
        carry[..., 1:] = scan[c - 1, ..., :-1]
        gain = np.full(rows * nck, alpha**c)
        if fresh:  # each row's first chunk started from its own state
            carry[..., 0] = 0.0
            _chain(carry, gain[:nck])
        else:
            carry[:, 0, 0] = zi
            carry[:, 1:, 0] = scan[rem - 1, :, :-1, -1]
            gain[::nck] = alpha**rem
            _chain(carry.reshape(p, rows * nck), gain)
        lift = _scratch(bufs, "draw", scan.shape)
        np.multiply(alpha ** np.arange(1, c + 1).reshape(c, 1, 1, 1), carry, out=lift)
        scan += lift
    for rowwise, chunks in _chunk_views(out, scan):
        rowwise[...] = chunks
    state = scan[rem - 1, ..., -1].T
    return out, (state if fresh else state[-1:]).copy()


def check_sampling(strategy: str, n: int, num_samples: int) -> None:
    """ConfigError unless strategy is known and n and N are at least 1."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")


def iter_trajectory_blocks(model: LdsModel, strategy: str, n: int, num_samples: int, seed):
    """Yield the trajectory array in (rows, N, p) blocks, bounding memory.

    Each block is one unit of rows, fixed by N and p alone, from one
    `_noise` call. A restart-record block runs the recursion in place over
    ``rows`` fresh windows. A continuous block runs it once over rows*N new
    steps of the one realization and the p-1 carried before them: a node at
    topological depth d reads only d steps back, so from step p-1 on each
    value takes the same operations as in its segment's own window.
    Concatenating the blocks gives ``simulate(...).data``.
    """
    check_sampling(strategy, n, num_samples)
    p = model.p
    big_n = int(num_samples)
    rng = rng_from(seed)
    # children in topological order: a node's whole series then needs only
    # parent series that are already final
    edges = [(j, k, model.b[j, k]) for j in model.dag.order for k in np.flatnonzero(model.b[j])]
    pre = p - 1
    restart = strategy == "restart_record"

    row_elems = (pre + big_n) * p if restart else big_n * p
    unit_rows = max(1, _TARGET_BLOCK_ELEMS // row_elems)
    bufs = {}
    if not restart:
        carry, zi = _noise(model.noise, rng, 1, pre, p)
    for first in range(0, n, unit_rows):
        rows = min(unit_rows, n - first)
        # a fresh node-major block, each node's series contiguous for the recursion
        if restart:
            x = np.empty((p, rows, pre + big_n)).transpose(1, 2, 0)
            _noise(model.noise, rng, rows, pre + big_n, p, out=x, bufs=bufs)
        else:
            x = np.empty((p, 1, pre + rows * big_n)).transpose(1, 2, 0)
            path = x[0, pre:].reshape(rows, big_n, p)
            zi = _noise(model.noise, rng, rows, big_n, p, zi, out=path, bufs=bufs)[1]
            x[:, :pre] = carry
            carry = x[:, x.shape[1] - pre :].copy()
        # x(t) = B x(t-1) + e(t), one pass along time per edge of B
        for j, k, coef in edges:
            x[:, 1:, j] += coef * x[:, :-1, k]
        yield x[:, pre:] if restart else path


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
            n=as_int("manifest n", manifest["n"]),
            num_samples=as_int("manifest N", manifest["N"]),
            data=data,
            seed=tuple(seed) if isinstance(seed, list) else seed,
        )
    except (KeyError, ValueError, TypeError, EOFError) as exc:
        raise ConfigError(f"malformed trajectory directory {directory}: {exc}") from exc
    return traj, manifest
