"""Trajectory generation under both sampling strategies, by the VAR
recursion over noise windows. Its values are checked against the
moving-average form sum_k B^k e(t-k) on the same noise, its AR(1) noise
against a step-by-step loop on the same normals, and its moments against
a naive zero-init recursion written in the tests, independently of the
package."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectradag
from spectradag.errors import ConfigError
from spectradag.graphs import Dag, random_dag
from spectradag.models import NoiseSpec, build_model
from spectradag.seeding import rng_from
from spectradag.simulate import (
    TrajectorySet,
    _noise,
    iter_trajectory_blocks,
    load_trajectories,
    save_trajectories,
    simulate,
)
from .test_linalg import naive_dft
from .test_models import naive_trajectories

IID = NoiseSpec(kind="iid", sigma_w=0.5)
AR1 = NoiseSpec(kind="ar1", sigma_w=0.5, alpha=0.5)


def edgeless(p):
    return Dag(p=p, edges=frozenset(), order=tuple(range(p)))


class TestShapes:
    @pytest.mark.parametrize("strategy", ["restart_record", "continuous"])
    def test_dimensions(self, strategy):
        model = build_model(random_dag(4, 2, seed=0), IID, seed=0)
        traj = simulate(model, strategy, n=7, num_samples=12, seed=5)
        assert traj.data.shape == (7, 12, 4)
        assert traj.strategy == strategy
        assert traj.n == 7 and traj.num_samples == 12
        assert traj.seed == 5

    def test_bad_arguments(self):
        model = build_model(edgeless(2), IID, seed=0)
        with pytest.raises(ConfigError):
            simulate(model, "bogus", 1, 4, seed=0)
        with pytest.raises(ConfigError):
            simulate(model, "continuous", 0, 4, seed=0)
        with pytest.raises(ConfigError):
            simulate(model, "continuous", 1, 0, seed=0)

    def test_sampling_imports_no_scipy(self):
        # the AR(1) filter is numpy's own: sampling and estimation load no scipy
        code = "\n".join([
            "import sys",
            "import spectradag",
            "from spectradag.cpsd import sample_psdm",
            "from spectradag.graphs import random_dag",
            "from spectradag.models import NoiseSpec, build_model",
            "model = build_model(random_dag(4, 2, seed=1), NoiseSpec('ar1', alpha=0.6), seed=1)",
            "for strategy in ('restart_record', 'continuous'):",
            "    sample_psdm(model, strategy, 30, 16, 0.5, seed=2)",
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
        ])
        src = str(Path(spectradag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["restart_record", "continuous"])
    def test_same_seed_identical(self, strategy):
        model = build_model(random_dag(3, 2, seed=1), AR1, seed=1)
        a = simulate(model, strategy, 5, 16, seed=99)
        b = simulate(model, strategy, 5, 16, seed=99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        model = build_model(edgeless(2), IID, seed=0)
        a = simulate(model, "restart_record", 3, 8, seed=1)
        b = simulate(model, "restart_record", 3, 8, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_block_iterator_matches_simulate(self):
        # the streaming generator must reproduce simulate()'s draws exactly;
        # 17000 rows of N=8 span two sampling units at p=1 and four at p=3
        for p in (1, 3):
            for noise in (IID, AR1):
                model = build_model(random_dag(p, min(1, p - 1), seed=2), noise, seed=2)
                for strategy in ("restart_record", "continuous"):
                    full = simulate(model, strategy, 17000, 8, seed=11)
                    blocks = list(iter_trajectory_blocks(model, strategy, 17000, 8, seed=11))
                    np.testing.assert_array_equal(np.concatenate(blocks, axis=0), full.data)
                    assert len(blocks) >= 2

    @pytest.mark.parametrize(
        "p, noise, strategy, digest",
        [
            (1, AR1, "continuous",
             "b2876a20b73e427dc1bd92a2bb55d72207bdc93e26ff5176fff75a3e1f176281"),
            (1, IID, "restart_record",
             "0935cb5fbefc18f510c9b9c17c7999af8a0183b8ccde4211f20a42aeeaecbaef"),
            (4, AR1, "restart_record",
             "80a11fd15ccd06e5bb0f2de3bfae81ba282bccafacea76cd77bcaec2da9550e8"),
            (4, IID, "continuous",
             "c3811efd1a6501cf8c63cd7f99ef155022717dd344ba5d622a386977491a3dec"),
            (6, AR1, "continuous",
             "c2306aa7ff23c7a2dac8b4891b60af83a048dc99d5b47afa563ab348ce99df20"),
        ],
        ids=["p1-ar1-continuous", "p1-iid-restart", "p4-ar1-restart", "p4-iid-continuous",
             "p6-ar1-continuous"],
    )
    def test_golden_digest(self, p, noise, strategy, digest):
        # the seeded draws are a contract: a change to draw or arithmetic
        # order changes these digests
        model = build_model(random_dag(p, min(2, p - 1), seed=p), noise, seed=p)
        data = simulate(model, strategy, 7, 8, seed=2024).data
        assert hashlib.sha256(np.round(data, 10).tobytes()).hexdigest() == digest


def moving_average_oracle(model, strategy, n, num_samples, seed):
    """x(t) = sum_{k<p} B^k e(t-k) on the package's own noise for this seed.

    The noise is redrawn with `_noise` in the sampler's call order. Row
    splits change neither a restart-record row nor the continuous stream,
    so one call per stream stands for any block size.
    """
    p, big_n = model.p, num_samples
    rng = rng_from(seed)
    if strategy == "restart_record":
        windows, _ = _noise(model.noise, rng, n, p - 1 + big_n, p)
    else:
        head, zi = _noise(model.noise, rng, 1, p - 1, p)
        path, _ = _noise(model.noise, rng, 1, n * big_n, p, zi)
        stream = np.concatenate([head, path], axis=1)[0]
        windows = np.stack([stream[r * big_n : r * big_n + p - 1 + big_n] for r in range(n)])
    x = np.zeros((n, big_n, p))
    for k in range(p):
        x += windows[:, p - 1 - k : p - 1 - k + big_n] @ np.linalg.matrix_power(model.b, k).T
    return x


class TestMovingAverageOracle:
    PATH8 = Dag(p=8, edges=frozenset((i, i + 1) for i in range(7)), order=tuple(range(8)))
    # the same path with its labels reversed: children before parents in index order
    REVERSED8 = Dag(
        p=8, edges=frozenset((i + 1, i) for i in range(7)), order=tuple(range(7, -1, -1))
    )

    @pytest.mark.parametrize("dag", [PATH8, REVERSED8], ids=["path", "reversed-path"])
    @pytest.mark.parametrize("noise", [IID, AR1], ids=["iid", "ar1"])
    @pytest.mark.parametrize(
        "strategy, n",
        [("restart_record", 10), ("continuous", 10), ("continuous", 3000)],
        ids=["restart", "continuous", "continuous-two-units"],
    )
    def test_recursion_equals_moving_average(self, dag, noise, strategy, n):
        # a path DAG has B^7 != 0, so every one of the p-1 leading steps counts;
        # 3000 continuous rows of N=6 at p=8 span two sampling units, so the
        # second unit's first windows start in the carry from the first
        model = build_model(dag, noise, seed=3)
        assert np.any(np.linalg.matrix_power(model.b, 7))
        blocks = list(iter_trajectory_blocks(model, strategy, n, 6, seed=17))
        got = np.concatenate(blocks, axis=0)
        want = moving_average_oracle(model, strategy, n, 6, seed=17)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert len(blocks) == (2 if n == 3000 else 1)


def ar1_noise_reference(noise, strategy, n, num_samples, p, seed):
    """y(t) = w(t) + alpha y(t-1), one step at a time, on the package's own
    normals for this seed.

    The normals are redrawn in the sampler's call order, each row's (or the
    one realization's) stationary initial state first. Draws of consecutive
    calls form one stream, so one call stands for all of them.
    """
    rng = rng_from(seed)
    pre = p - 1
    if strategy == "restart_record":
        z = rng.standard_normal((n, 1 + pre + num_samples, p))
    else:
        z = rng.standard_normal((1, 1 + pre + n * num_samples, p))
    y = z[:, 1:] * np.sqrt(noise.sigma_w)
    prev = float(np.sqrt(noise.sigma_w / (1.0 - noise.alpha**2))) * z[:, 0]
    for t in range(y.shape[1]):
        y[:, t] += noise.alpha * prev
        prev = y[:, t]
    return y[:, pre:].reshape(n, num_samples, p)


class TestAr1ScanReference:
    # with no edges a trajectory is its noise, so the blocks show the scan itself
    @pytest.mark.parametrize("alpha", [0.6, 0.95])
    @pytest.mark.parametrize(
        "strategy, n, num_samples",
        [("restart_record", 700, 64), ("restart_record", 300, 200),
         ("continuous", 700, 64), ("continuous", 300, 300)],
        ids=["restart-one-chunk", "restart-longer-than-chunk", "continuous",
             "continuous-longer-than-chunk"],
    )
    def test_scan_equals_sequential_loop(self, alpha, strategy, n, num_samples):
        # windows of p-1+N = 66 steps fit one 128-step chunk, 202 take two;
        # every case spans two or three sampling units
        noise = NoiseSpec(kind="ar1", sigma_w=0.5, alpha=alpha)
        model = build_model(edgeless(3), noise, seed=0)
        want = ar1_noise_reference(noise, strategy, n, num_samples, 3, seed=23)
        blocks = list(iter_trajectory_blocks(model, strategy, n, num_samples, seed=23))
        assert len(blocks) >= 2
        got = np.concatenate(blocks, axis=0)
        if strategy == "restart_record" and num_samples + 2 <= 128:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestDistribution:
    def test_pure_noise_covariance(self):
        # pooled samples of the driving noise alone: covariance sigma_w * I
        model = build_model(edgeless(3), IID, seed=0)
        traj = simulate(model, "restart_record", n=2500, num_samples=40, seed=3)
        pooled = traj.data.reshape(-1, 3)
        cov = pooled.T @ pooled / pooled.shape[0]
        outer = np.einsum("ti,tj->tij", pooled, pooled)
        se = outer.std(axis=0, ddof=1) / np.sqrt(pooled.shape[0])
        assert np.all(np.abs(cov - 0.5 * np.eye(3)) <= 5 * se)

    def test_two_node_chain_variance(self):
        model = build_model(Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1)), IID, seed=4)
        b = model.b[1, 0]
        traj = simulate(model, "restart_record", n=4000, num_samples=25, seed=7)
        x2 = traj.data[:, :, 1].ravel()
        want = 0.5 * (1 + b * b)
        se = (x2**2).std(ddof=1) / np.sqrt(x2.size)
        assert abs((x2**2).mean() - want) <= 5 * se

    def test_ar1_stationary_from_first_sample(self):
        # variance of the very first recorded sample equals the stationary value
        model = build_model(edgeless(1), AR1, seed=0)
        traj = simulate(model, "restart_record", n=20000, num_samples=2, seed=13)
        first = traj.data[:, 0, 0]
        want = 0.5 / (1 - 0.25)
        se = (first**2).std(ddof=1) / np.sqrt(first.size)
        assert abs((first**2).mean() - want) <= 5 * se

    @pytest.mark.parametrize("noise", [IID, AR1], ids=["iid", "ar1"])
    def test_exact_matches_recursion_distribution(self, noise):
        # same lag-0/lag-1 moments from the exact sampler and a naive recursion
        model = build_model(random_dag(3, 2, seed=5), noise, seed=5)
        a = simulate(model, "restart_record", 4000, 16, seed=21).data
        b = naive_trajectories(model, 4000, 16, np.random.default_rng(22), discard=200)
        for lag in (0, 1):
            pa = np.einsum("ntp,ntq->npq", a[:, lag:, :], a[:, : 16 - lag, :]) / (16 - lag)
            pb = np.einsum("ntp,ntq->npq", b[:, lag:, :], b[:, : 16 - lag, :]) / (16 - lag)
            se = np.sqrt(pa.std(axis=0, ddof=1) ** 2 / 4000 + pb.std(axis=0, ddof=1) ** 2 / 4000)
            assert np.all(np.abs(pa.mean(axis=0) - pb.mean(axis=0)) <= 5 * se + 1e-12)

    def test_continuous_segments_are_consecutive(self):
        # one realization: reshaping into segments must not change the samples
        model = build_model(random_dag(3, 2, seed=6), AR1, seed=6)
        seg = simulate(model, "continuous", n=6, num_samples=8, seed=31)
        whole = simulate(model, "continuous", n=1, num_samples=48, seed=31)
        np.testing.assert_allclose(
            seg.data.reshape(-1, 3), whole.data.reshape(-1, 3), atol=1e-12
        )

    def test_continuous_adjacent_segments_correlated(self):
        # positive control: last sample of a segment and first of the next
        # follow the AR(1) coupling E[x(t+1) x(t)] = alpha * Var
        model = build_model(edgeless(1), AR1, seed=0)
        traj = simulate(model, "continuous", n=20000, num_samples=4, seed=41)
        last = traj.data[:-1, -1, 0]
        first = traj.data[1:, 0, 0]
        prod = last * first
        want = 0.5 * 0.5 / (1 - 0.25)
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean() - want) <= 5 * se

    def test_restart_record_trajectories_independent(self):
        # cross-trajectory correlation of the single-frequency DFT is zero
        model = build_model(random_dag(2, 1, seed=7), AR1, seed=7)
        traj = simulate(model, "restart_record", n=20000, num_samples=8, seed=51)
        omega = 2 * np.pi * 3 / 8
        rows = np.array([np.real(naive_dft(traj.data[r], omega))[0] for r in range(traj.n)])
        pairs = rows.reshape(-1, 2)
        prod = pairs[:, 0] * pairs[:, 1]
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean()) <= 5 * se


class TestTrajectoryIo:
    def test_round_trip(self, tmp_path):
        model = build_model(random_dag(3, 1, seed=8), IID, seed=8)
        traj = simulate(model, "restart_record", n=4, num_samples=6, seed=61)
        save_trajectories(traj, tmp_path, model=model)
        back, manifest = load_trajectories(tmp_path)
        np.testing.assert_array_equal(back.data, traj.data)
        assert back.strategy == traj.strategy
        assert manifest["n"] == 4 and manifest["N"] == 6
        assert len(manifest["model_hash"]) == 64

    def test_reads_manifest_with_burn_in_key(self, tmp_path):
        # manifests written before the recursion sampler was removed carry "burn_in"
        model = build_model(random_dag(3, 1, seed=8), IID, seed=8)
        traj = simulate(model, "restart_record", n=2, num_samples=5, seed=62)
        save_trajectories(traj, tmp_path, model=model)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "burn_in" not in manifest
        manifest["burn_in"] = 1000
        path.write_text(json.dumps(manifest))
        back, _ = load_trajectories(tmp_path)
        np.testing.assert_allclose(back.data, traj.data, atol=1e-12)

    def test_array_layout(self, tmp_path):
        # one (n, N, p) array file next to the manifest, whatever n is
        model = build_model(edgeless(2), IID, seed=0)
        traj = simulate(model, "continuous", n=2, num_samples=3, seed=71)
        save_trajectories(traj, tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "manifest.json",
            "trajectories.npy",
        ]
        np.testing.assert_array_equal(np.load(tmp_path / "trajectories.npy"), traj.data)
        assert "files" not in json.loads((tmp_path / "manifest.json").read_text())

    def test_complex_array_rejected(self, tmp_path):
        # casting to float would silently drop the imaginary part
        model = build_model(edgeless(2), IID, seed=0)
        traj = simulate(model, "continuous", n=2, num_samples=3, seed=71)
        save_trajectories(traj, tmp_path)
        np.save(tmp_path / "trajectories.npy", traj.data * (1 + 1j))
        with pytest.raises(ConfigError, match="complex"):
            load_trajectories(tmp_path)

    def test_non_integer_sizes_rejected(self, tmp_path):
        # int() would read 3.9 and 4.5 as 3 and 4, which match a (3, 4, p) array
        model = build_model(edgeless(2), IID, seed=0)
        save_trajectories(simulate(model, "restart_record", n=3, num_samples=4, seed=72), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(n=3.9, N=4.5)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="integer"):
            load_trajectories(tmp_path)


class TestTrajectorySetValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            TrajectorySet(
                strategy="restart_record",
                n=2,
                num_samples=3,
                data=np.zeros((2, 4, 1)),
                seed=0,
            )
