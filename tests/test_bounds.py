"""Sample-complexity and concentration bound calculators.

Frozen expected values were hand-derived once and are asserted to tight
tolerances; scaling laws are exact in floating point for the chosen inputs.
"""

import json
import math

import numpy as np
import pytest

from spectradag.bounds import (
    KINDS,
    BoundReport,
    build_report,
    min_samples_lower_bound,
    min_trajectory_length,
    psdm_tail_bound,
    report_to_json,
    sufficient_samples_upper_bound,
)
from spectradag.errors import ConfigError
from spectradag.graphs import random_dag
from spectradag.linalg import spectral_norm
from spectradag.models import (
    NoiseSpec,
    build_model,
    exact_psdm,
    expected_psdm_finite_n,
)

GRID8 = 2.0 * np.pi * np.arange(8) / 8.0


# ---------------------------------------------------------------------------
# recovery_lower


def test_recovery_lower_frozen_value():
    v = min_samples_lower_bound(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1)
    # hand derivation: (1-2*0.1) * max(ln10/(2*0.25+0.0625), 2*ln5/(4-1))
    oracle = 0.8 * max(math.log(10) / 0.5625, 2.0 * math.log(5.0) / 3.0)
    assert abs(v - oracle) < 1e-15
    assert abs(v - 3.2747876878137545) < 1e-9


def test_recovery_lower_zero_at_delta_half():
    assert min_samples_lower_bound(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.5) == 0.0


def test_recovery_lower_rejects_large_q():
    with pytest.raises(ConfigError):
        min_samples_lower_bound(p=10, q=6, beta=0.5, m_bound=2.0, delta=0.1)
    # boundary q = p/2 is allowed
    min_samples_lower_bound(p=10, q=5, beta=0.5, m_bound=2.0, delta=0.1)


def test_recovery_lower_monotone_in_p():
    lo = min_samples_lower_bound(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1)
    hi = min_samples_lower_bound(p=100, q=2, beta=0.5, m_bound=2.0, delta=0.1)
    assert hi > lo


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=10, q=2, beta=0.0, m_bound=2.0, delta=0.1),
        dict(p=10, q=2, beta=0.5, m_bound=1.0, delta=0.1),
        dict(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.0),
        dict(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.7),
        dict(p=0, q=0, beta=0.5, m_bound=2.0, delta=0.1),
        dict(p=10, q=-1, beta=0.5, m_bound=2.0, delta=0.1),
    ],
)
def test_recovery_lower_rejects_bad_inputs(kwargs):
    with pytest.raises(ConfigError):
        min_samples_lower_bound(**kwargs)


def test_recovery_lower_q_zero_is_finite():
    # q = 0 kills the second branch entirely (limit q*ln(p/q) -> 0)
    v = min_samples_lower_bound(p=4, q=0, beta=0.5, m_bound=2.0, delta=0.1)
    assert v == pytest.approx(0.8 * math.log(4) / 0.5625, rel=1e-12)


# ---------------------------------------------------------------------------
# recovery_upper


def test_recovery_upper_formula_oracle():
    v = sufficient_samples_upper_bound(p=10, q=2, m_bound=1.5, epsilon2=0.33, delta=0.1)
    # separately written expression, different factoring
    oracle = (
        10368.0
        * 1.5**6
        * (6.0 * (2 + 1) + 2 * math.log(10 / 2) + math.log(3.0 / 0.1))
        / 0.33**2
    )
    assert v == pytest.approx(oracle, rel=1e-12)
    assert v > 0


def test_recovery_upper_m_sixth_power_scaling():
    v1 = sufficient_samples_upper_bound(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1)
    v2 = sufficient_samples_upper_bound(p=10, q=2, m_bound=3.0, epsilon2=0.5, delta=0.1)
    assert v2 / v1 == 64.0


def test_recovery_upper_epsilon_inverse_square_scaling():
    v1 = sufficient_samples_upper_bound(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1)
    v2 = sufficient_samples_upper_bound(
        p=10, q=2, m_bound=1.5, epsilon2=0.25, delta=0.1
    )
    assert v2 / v1 == 4.0


def test_recovery_upper_q_zero_finite():
    v = sufficient_samples_upper_bound(p=5, q=0, m_bound=1.2, epsilon2=0.1, delta=0.2)
    assert v == pytest.approx(10368.0 * 1.2**6 * (6.0 + math.log(15.0)) / 0.01, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=10, q=2, m_bound=1.5, epsilon2=0.0, delta=0.1),
        dict(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.0),
        dict(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=1.0),
        dict(p=10, q=2, m_bound=0.9, epsilon2=0.5, delta=0.1),
        dict(p=2, q=5, m_bound=1.5, epsilon2=0.5, delta=0.1),
    ],
)
def test_recovery_upper_rejects_bad_inputs(kwargs):
    with pytest.raises(ConfigError):
        sufficient_samples_upper_bound(**kwargs)


# ---------------------------------------------------------------------------
# trajectory_length


def test_trajectory_length_frozen_value():
    n = min_trajectory_length(c_decay=1.0, rho=2.0, epsilon1=0.1)
    assert isinstance(n, int)
    assert n == 41


def test_trajectory_length_epsilon_inverse_proportional():
    # pre-ceiling part doubles when epsilon1 halves; +1 offsets cancel
    n_small = min_trajectory_length(c_decay=1.0, rho=2.0, epsilon1=0.05)
    n_big = min_trajectory_length(c_decay=1.0, rho=2.0, epsilon1=0.1)
    assert n_small - 1 == 2 * (n_big - 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c_decay=1.0, rho=1.0, epsilon1=0.1),
        dict(c_decay=1.0, rho=0.5, epsilon1=0.1),
        dict(c_decay=1.0, rho=2.0, epsilon1=0.0),
        dict(c_decay=-1.0, rho=2.0, epsilon1=0.1),
    ],
)
def test_trajectory_length_rejects_bad_inputs(kwargs):
    with pytest.raises(ConfigError):
        min_trajectory_length(**kwargs)


def test_trajectory_length_dominates_measured_truncation_error():
    # at the returned N, the finite-N expected PSDM is within epsilon1 of the
    # exact PSDM, using the model's own fitted decay envelope
    eps1 = 0.25
    for seed in (3, 11):
        model = build_model(random_dag(6, 2, seed=seed), NoiseSpec("iid"), seed=seed)
        n_min = min_trajectory_length(
            c_decay=model.constants.c_decay, rho=model.constants.rho, epsilon1=eps1
        )
        for omega in GRID8:
            err = spectral_norm(
                expected_psdm_finite_n(model, float(omega), n_min)
                - exact_psdm(model, float(omega))
            )
            assert err < eps1


# ---------------------------------------------------------------------------
# estimation_tail


def test_tail_bound_capped_at_one():
    assert psdm_tail_bound(t=0.01, n=100, p=10, m_bound=2.0) == 1.0


def test_tail_bound_formula_oracle():
    v = psdm_tail_bound(t=1.0, n=10_000, p=3, m_bound=1.0)
    assert v == pytest.approx(math.exp(-10_000.0 / 128.0 + 18.0), rel=1e-12)
    assert v < 1.0


def test_tail_bound_monotone_decreasing_in_t():
    vals = [psdm_tail_bound(t=t, n=5000, p=3, m_bound=1.2) for t in (0.5, 1.0, 2.0)]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[1] > vals[2]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=-0.5, n=100, p=3, m_bound=1.0),
        dict(t=1.0, n=0, p=3, m_bound=1.0),
        dict(t=1.0, n=100, p=0, m_bound=1.0),
        dict(t=1.0, n=100, p=3, m_bound=0.5),
    ],
)
def test_tail_bound_rejects_bad_inputs(kwargs):
    with pytest.raises(ConfigError):
        psdm_tail_bound(**kwargs)


# ---------------------------------------------------------------------------
# reports


def test_report_kinds_frozen():
    assert KINDS == (
        "recovery_lower",
        "recovery_upper",
        "trajectory_length",
        "estimation_tail",
    )


def test_build_report_dispatches_each_kind():
    r1 = build_report(
        "recovery_lower", dict(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1)
    )
    assert r1.value == min_samples_lower_bound(
        p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1
    )
    r2 = build_report(
        "recovery_upper", dict(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1)
    )
    assert r2.value == sufficient_samples_upper_bound(
        p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1
    )
    r3 = build_report("trajectory_length", dict(c_decay=1.0, rho=2.0, epsilon1=0.1))
    assert r3.value == 41
    r4 = build_report("estimation_tail", dict(t=1.0, n=10_000, p=3, m_bound=1.0))
    assert r4.value == psdm_tail_bound(t=1.0, n=10_000, p=3, m_bound=1.0)
    for r in (r1, r2, r3, r4):
        assert isinstance(r, BoundReport)
        assert r.value >= 0


VALID_INPUTS = {
    "recovery_lower": dict(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1),
    "recovery_upper": dict(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1),
    "trajectory_length": dict(c_decay=1.0, rho=2.0, epsilon1=0.1),
    "estimation_tail": dict(t=1.0, n=10_000, p=3, m_bound=1.0),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, inputs in VALID_INPUTS.items() for key in inputs]
)
def test_build_report_rejects_non_finite_inputs(kind, key, bad):
    # every kind: an infinite value would serialize as Infinity, which is not JSON
    assert math.isfinite(build_report(kind, VALID_INPUTS[kind]).value)
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        build_report(kind, {**VALID_INPUTS[kind], key: bad})


def test_build_report_rejects_unknown_kind_and_bad_keys():
    with pytest.raises(ConfigError):
        build_report("nonsense", dict(p=10))
    with pytest.raises(ConfigError):
        build_report("trajectory_length", dict(c_decay=1.0, rho=2.0))
    with pytest.raises(ConfigError):
        build_report(
            "trajectory_length", dict(c_decay=1.0, rho=2.0, epsilon1=0.1, extra=5)
        )


def test_report_json_round_trip():
    report = build_report("trajectory_length", dict(c_decay=1.0, rho=2.0, epsilon1=0.1))
    doc = json.loads(report_to_json(report))
    assert doc["kind"] == "trajectory_length"
    assert doc["value"] == 41
    assert doc["inputs"] == {"c_decay": 1.0, "rho": 2.0, "epsilon1": 0.1}


def test_report_negative_value_rejected():
    with pytest.raises(ConfigError):
        BoundReport(kind="recovery_lower", inputs={}, value=-0.1)
    with pytest.raises(ConfigError):
        BoundReport(kind="bogus", inputs={}, value=1.0)
