"""Closed-form sample-complexity and concentration bounds.

Four calculators, pure arithmetic:

- `min_samples_lower_bound`: trajectories below which no estimator can
  recover the graph with the requested confidence.
- `sufficient_samples_upper_bound`: trajectories above which recovery
  succeeds with the requested confidence (constant is order-level only).
- `min_trajectory_length`: per-trajectory length making the finite-length
  truncation bias of the expected PSDM smaller than epsilon1.
- `psdm_tail_bound`: probability envelope for spectral-norm deviations of
  the PSDM estimate around its finite-length expectation, capped at 1.

`build_report` wraps any of them into a `BoundReport` for serialization,
and rejects a NaN or infinite input first: JSON has no infinite number.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError

# the union bound behind the sufficient-sample constant has three terms
_UNION_TERMS = 3.0


@dataclass(frozen=True)
class BoundReport:
    kind: str
    inputs: dict
    value: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.value >= 0:
            raise ConfigError(f"bound value must be >= 0, got {self.value}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def min_samples_lower_bound(
    *, p: int, q: int, beta: float, m_bound: float, delta: float
) -> float:
    """(1-2*delta) * max(ln p / (2*beta^2 + beta^4), q*ln(p/q) / (M^2 - 1))."""
    _require(p >= 1, f"p must be >= 1, got {p}")
    _require(0 <= q <= p / 2, f"q must satisfy 0 <= q <= p/2, got q={q}, p={p}")
    _require(beta > 0, f"beta must be > 0, got {beta}")
    _require(m_bound > 1, f"m_bound must be > 1, got {m_bound}")
    _require(0 < delta <= 0.5, f"delta must be in (0, 1/2], got {delta}")
    first = math.log(p) / (2.0 * beta**2 + beta**4)
    second = q * math.log(p / q) / (m_bound**2 - 1.0) if q > 0 else 0.0
    return (1.0 - 2.0 * delta) * max(first, second)


def sufficient_samples_upper_bound(
    *, p: int, q: int, m_bound: float, epsilon2: float, delta: float
) -> float:
    """10368 * M^6 * (6(q+1) + q*ln(p/q) + ln(3/delta)) / epsilon2^2."""
    _require(p >= 1, f"p must be >= 1, got {p}")
    _require(0 <= q <= p, f"q must satisfy 0 <= q <= p, got q={q}, p={p}")
    _require(m_bound >= 1, f"m_bound must be >= 1, got {m_bound}")
    _require(epsilon2 > 0, f"epsilon2 must be > 0, got {epsilon2}")
    _require(0 < delta < 1, f"delta must be in (0, 1), got {delta}")
    complexity = 6.0 * (q + 1.0)
    if q > 0:
        complexity += q * math.log(p / q)
    complexity += math.log(_UNION_TERMS / delta)
    return 10368.0 * m_bound**6 * complexity / epsilon2**2


def min_trajectory_length(*, c_decay: float, rho: float, epsilon1: float) -> int:
    """ceil(2*C/rho / ((1 - 1/rho)^2 * epsilon1)) + 1."""
    _require(c_decay >= 0, f"c_decay must be >= 0, got {c_decay}")
    _require(rho > 1, f"rho must be > 1, got {rho}")
    _require(epsilon1 > 0, f"epsilon1 must be > 0, got {epsilon1}")
    inv = 1.0 / rho
    return math.ceil(2.0 * c_decay * inv / ((1.0 - inv) ** 2 * epsilon1)) + 1


def psdm_tail_bound(*, t: float, n: int, p: int, m_bound: float) -> float:
    """min(1, exp(-t^2 * n / (128 M^2) + 6p))."""
    _require(t >= 0, f"t must be >= 0, got {t}")
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(p >= 1, f"p must be >= 1, got {p}")
    _require(m_bound >= 1, f"m_bound must be >= 1, got {m_bound}")
    exponent = -(t**2) * n / (128.0 * m_bound**2) + 6.0 * p
    if exponent >= 0:
        return 1.0
    return min(1.0, math.exp(exponent))


_CALCULATORS = {
    "recovery_lower": (min_samples_lower_bound, ("p", "q", "beta", "m_bound", "delta")),
    "recovery_upper": (
        sufficient_samples_upper_bound,
        ("p", "q", "m_bound", "epsilon2", "delta"),
    ),
    "trajectory_length": (min_trajectory_length, ("c_decay", "rho", "epsilon1")),
    "estimation_tail": (psdm_tail_bound, ("t", "n", "p", "m_bound")),
}
KINDS = tuple(_CALCULATORS)
# every calculator input once, in first-use order
INPUT_KEYS = tuple(dict.fromkeys(k for _, keys in _CALCULATORS.values() for k in keys))


def build_report(kind: str, inputs: dict) -> BoundReport:
    """Dispatch to the calculator for `kind`; inputs must match exactly and be finite."""
    if kind not in _CALCULATORS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    fn, keys = _CALCULATORS[kind]
    missing = [k for k in keys if k not in inputs]
    extra = [k for k in inputs if k not in keys]
    if missing or extra:
        raise ConfigError(
            f"inputs for {kind} must be exactly {keys}; "
            f"missing={missing}, unexpected={extra}"
        )
    for key, value in inputs.items():
        _require(math.isfinite(value), f"{key} must be finite, got {value}")
    value = fn(**inputs)
    return BoundReport(kind=kind, inputs=dict(inputs), value=float(value))


def report_to_json(report: BoundReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)
