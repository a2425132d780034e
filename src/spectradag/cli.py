"""Command-line front end.

Subcommands: gen, simulate, estimate, reconstruct, experiment, tail, bounds.
Exit codes: 0 success, 1 configuration error (including bad flags), 2
numerical failure beyond rescue, 3 I/O error.

`gen --seed S --trial T` reproduces exactly the model that `experiment`
with root seed S builds for trial T of the same noise kind (both call
`experiments.trial_model`), so any experiment cell can be replayed
piecewise from the shell.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import INPUT_KEYS, build_report, report_to_json
from .cpsd import estimate_psdm, load_psdm, save_psdm
from .errors import ConfigError, NumericalError
from .experiments import (
    config_from_mapping,
    records_to_csv,
    run_experiment,
    tail_experiment,
    tail_to_csv,
    trial_model,
)
from .graphs import dag_to_edgelist
from .models import NoiseSpec, model_from_json, model_to_json
from .reconstruct import ReconstructionParams, audit_json, reconstruct
from .simulate import STRATEGIES, load_trajectories, save_trajectories, simulate


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1, not 2."""

    def error(self, message):
        raise ConfigError(message)


def _csv_ints(text):
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _csv_strs(text):
    if text is None:
        return None
    return [part for part in text.split(",") if part != ""]


def _resolve_omega(args, num_samples: int) -> float:
    given_index = getattr(args, "omega_index", None) is not None
    given_omega = getattr(args, "omega", None) is not None
    if given_index == given_omega:
        raise ConfigError("exactly one of --omega-index / --omega is required")
    if given_omega:
        if not math.isfinite(args.omega):
            raise ConfigError(f"omega must be finite, got {args.omega}")
        return float(args.omega)
    index = int(args.omega_index)
    if not (0 <= index < num_samples):
        raise ConfigError(
            f"omega index must be in [0, {num_samples}), got {index}"
        )
    return 2.0 * 3.141592653589793 * index / num_samples


def _noise_from_flags(args) -> NoiseSpec:
    return NoiseSpec(kind=args.noise, sigma_w=args.sigma_w, alpha=args.alpha)


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> None:
    if args.seed < 0 or args.trial < 0:
        raise ConfigError("seed and trial must be nonnegative")
    model = trial_model(args.p, args.q, _noise_from_flags(args), args.seed, args.trial)
    _emit(model_to_json(model), args.out_model)
    if args.out_dag is not None:
        _emit(dag_to_edgelist(model.dag), args.out_dag)


def _cmd_simulate(args) -> None:
    model = model_from_json(Path(args.model).read_text())
    traj = simulate(model, args.strategy, args.n, args.num_samples, seed=args.seed)
    save_trajectories(traj, args.out_dir, model=model)


def _cmd_estimate(args) -> None:
    traj, _ = load_trajectories(args.traj_dir)
    est = estimate_psdm(traj, _resolve_omega(args, traj.num_samples))
    save_psdm(est, args.out)


def _cmd_reconstruct(args) -> None:
    if (args.psdm is None) == (args.traj_dir is None):
        raise ConfigError("exactly one of --psdm / --traj-dir is required")
    if args.psdm is not None:
        if args.omega is not None or args.omega_index is not None:
            raise ConfigError("the frequency comes from the PSDM file; drop --omega")
        est = load_psdm(args.psdm)
    else:
        traj, _ = load_trajectories(args.traj_dir)
        est = estimate_psdm(traj, _resolve_omega(args, traj.num_samples))
    params = ReconstructionParams(q=args.q, gamma=args.gamma, omega=est.omega)
    result = reconstruct(est, params)
    _emit(dag_to_edgelist(result.graph), args.out_dag)
    _emit(audit_json(result), args.out_audit)


def _cmd_experiment(args) -> None:
    doc = {}
    if args.config is not None:
        text = Path(args.config).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = {
        "p": args.p,
        "q": args.q,
        "n_grid": _csv_ints(args.n_grid),
        "noise": _csv_strs(args.noise),
        "strategies": _csv_strs(args.strategies),
        "num_samples": args.num_samples,
        "omega_index": args.omega_index,
        "trials": args.trials,
        "seed": args.seed,
        "gamma_override": args.gamma_override,
    }
    merged = dict(doc)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    config = config_from_mapping(merged)
    records = run_experiment(config, zero_wall_times=not args.wall_times)
    records_to_csv(records, args.out)


def _cmd_tail(args) -> None:
    omega = _resolve_omega(args, args.num_samples)
    rows = tail_experiment(
        p=args.p,
        n=args.n,
        num_samples=args.num_samples,
        trials=args.trials,
        omega=omega,
        seed=args.seed,
        q=args.q,
        noise=_noise_from_flags(args),
    )
    tail_to_csv(rows, args.out)


def _cmd_bounds(args) -> None:
    inputs = {
        key: getattr(args, key)
        for key in INPUT_KEYS
        if getattr(args, key) is not None
    }
    print(report_to_json(build_report(args.kind, inputs)))


def _add_noise_flags(sub) -> None:
    sub.add_argument("--noise", default="iid", help="noise kind: iid or ar1")
    sub.add_argument("--sigma-w", type=float, default=0.5)
    sub.add_argument("--alpha", type=float, default=0.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="spectradag")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("gen", help="draw a random DAG + model")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--q", type=int, required=True)
    _add_noise_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trial", type=int, default=0)
    gen.add_argument("--out-model", default=None)
    gen.add_argument("--out-dag", default=None)
    gen.set_defaults(func=_cmd_gen)

    sim = subs.add_parser("simulate", help="sample trajectories from a model file")
    sim.add_argument("--model", required=True)
    sim.add_argument("--strategy", choices=STRATEGIES, required=True)
    sim.add_argument("--n", type=int, required=True, help="number of trajectories")
    sim.add_argument("--num-samples", type=int, required=True, help="samples per trajectory")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = subs.add_parser("estimate", help="PSDM estimate from saved trajectories")
    est.add_argument("--traj-dir", required=True)
    est.add_argument("--omega-index", type=int, default=None)
    est.add_argument("--omega", type=float, default=None)
    est.add_argument("--out", required=True)
    est.set_defaults(func=_cmd_estimate)

    rec = subs.add_parser("reconstruct", help="recover the DAG from a PSDM or trajectories")
    rec.add_argument("--psdm", default=None)
    rec.add_argument("--traj-dir", default=None)
    rec.add_argument("--omega-index", type=int, default=None)
    rec.add_argument("--omega", type=float, default=None)
    rec.add_argument("--q", type=int, required=True)
    rec.add_argument("--gamma", type=float, required=True)
    rec.add_argument("--out-dag", default=None)
    rec.add_argument("--out-audit", default=None)
    rec.set_defaults(func=_cmd_reconstruct)

    exp = subs.add_parser("experiment", help="Monte Carlo recovery experiment -> CSV")
    exp.add_argument("--config", default=None, help="JSON config file")
    exp.add_argument("--p", type=int, default=None)
    exp.add_argument("--q", type=int, default=None)
    exp.add_argument("--n-grid", default=None, help="comma-separated trajectory counts")
    exp.add_argument("--noise", default=None, help="comma-separated noise kinds")
    exp.add_argument("--strategies", default=None, help="comma-separated strategies")
    exp.add_argument("--num-samples", type=int, default=None)
    exp.add_argument("--omega-index", type=int, default=None)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--gamma-override", type=float, default=None)
    exp.add_argument("--wall-times", action="store_true",
                     help="record real wall times (breaks byte determinism)")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=_cmd_experiment)

    tail = subs.add_parser("tail", help="estimator deviation tail table -> CSV")
    tail.add_argument("--p", type=int, required=True)
    tail.add_argument("--q", type=int, default=2)
    tail.add_argument("--n", type=int, required=True)
    tail.add_argument("--num-samples", type=int, required=True)
    tail.add_argument("--trials", type=int, required=True)
    tail.add_argument("--omega-index", type=int, default=None)
    tail.add_argument("--omega", type=float, default=None)
    _add_noise_flags(tail)
    tail.add_argument("--seed", type=int, default=0)
    tail.add_argument("--out", required=True)
    tail.set_defaults(func=_cmd_tail)

    bnd = subs.add_parser("bounds", help="evaluate a bound calculator -> JSON")
    bnd.add_argument("--kind", required=True)
    for key in INPUT_KEYS:
        cast = int if key in ("p", "q", "n") else float
        bnd.add_argument("--" + key.replace("_", "-"), type=cast, default=None)
    bnd.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
