"""Command-line entry point: train, hardcore, bounds, impossibility, sweep."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import bounds as bounds_mod
from . import experiments, hardcore
from .hypotheses import parse_class_spec
from .optimize import OptimizerConfig
from .optimize import optimize as run_optimizer
from .losses import parse_loss
from .risk import load_sample_csv


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hcb-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, out: str | None, no_timestamp: bool):
    """Write the report as JSON; a NaN or infinite value is a ValueError, as
    JSON has no such numbers, and nothing is written."""
    if not no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _field(obj, key, convert, path, default=None):
    """convert(obj[key]) for a JSON object obj read from path (default if absent).

    A missing key, or a value that convert rejects, is a ValueError naming
    the file and the key; convert=int takes JSON integers only, not 2.7 or true.
    """
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if value is None:
        raise ValueError(f"{path}: missing key {key!r}")
    try:
        if convert is int and type(value) is not int:
            raise TypeError
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: key {key!r} has an ill-typed value {value!r}") from None


def cmd_train(args) -> dict:
    sample = load_sample_csv(args.dataset)
    cls = parse_class_spec(args.cls)
    fm = cls.materialize(sample)
    loss = parse_loss(args.loss)
    method = {"sub": "subgradient", "coord": "coordinate"}[args.method]
    cfg = OptimizerConfig(
        method=method, max_iters=args.max_iters, step_scale=args.step_scale
    )
    run = run_optimizer(fm, loss, cfg)
    report = {
        "lambda": run.lam.tolist(),
        "objective": run.objective,
        "l1_norm": float(np.abs(run.lam).sum()),
        "iterations": run.iterations,
        "stop_reason": run.stop_reason,
        "truncated_steps": run.truncated_steps,
        "slope_evaluations": run.slope_evaluations,
    }
    if args.trace:
        # a report JSON cannot carry fails here, before the trace is written
        json.dumps(report, allow_nan=False)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iter", "objective", "l1_norm", "grad_sup_norm"])
        for i, (obj, norm) in enumerate(zip(run.objective_trace, run.norm_trace)):
            grad = run.grad_sup_trace[i] if i < len(run.grad_sup_trace) else ""
            writer.writerow([i, obj, norm, grad])
        _write_atomic(args.trace, buf.getvalue())
    return report


def cmd_hardcore(args) -> dict:
    sample = load_sample_csv(args.dataset)
    cls = parse_class_spec(args.cls)
    fm = cls.materialize(sample)
    cert = hardcore.compute_hardcore(fm)
    dich = hardcore.verify_dichotomy(fm, cert.core, trials=args.trials, seed=args.seed)
    return {
        "core": cert.core.tolist(),
        "core_mass": float(fm.weights[cert.core].sum()),
        "p": cert.p.tolist(),
        "lambda": cert.separator.tolist(),
        "margin": None if np.isinf(cert.margin) else cert.margin,
        "point_optima": cert.point_optima.tolist(),
        "verification": {
            "dichotomy_trials": dich.trials,
            "dichotomy_violations": dich.violations,
        },
    }


def cmd_bounds(args) -> dict:
    loss = parse_loss(args.loss)
    if args.from_certificate:
        path = args.from_certificate
        with open(path) as fh:
            cert = json.load(fh)
        mu_core = _field(cert, "core_mass", float, path)
    else:
        mu_core = args.mu_core
    inputs = bounds_mod.BoundInputs(
        m=args.m, n=args.n, delta=args.delta, epsilon=args.epsilon,
        phi0=loss.value_at_origin, mu_core=mu_core, c=args.c, b=args.b,
    )
    report = bounds_mod.full_risk_bound(inputs, loss, approx_error=args.approx_error)
    lip, phib = bounds_mod.rademacher_constant(loss, args.b)
    rad = bounds_mod.rademacher_surrogate_deviation(
        args.n, args.m, args.b, lip, phib, args.delta
    )
    return {
        "inputs": {
            "m": args.m, "n": args.n, "delta": args.delta, "epsilon": args.epsilon,
            "mu_core": mu_core, "c": args.c, "b": args.b, "loss": args.loss,
            "approx_error": args.approx_error,
        },
        "psi_term": report.psi_term,
        "vc_term": report.vc_term,
        "total": report.total,
        "delta_prime": report.delta_prime,
        "preconditions": report.preconditions,
        "rademacher_deviation": rad,
    }


def cmd_impossibility(args) -> dict:
    loss = parse_loss(args.loss)
    scales = [float(s) for s in args.scales.split(",")]
    if not all(math.isfinite(s) for s in scales):
        raise ValueError(f"scales must be finite, got {args.scales!r}")
    rep = experiments.impossibility_report(
        args.depth, args.m, scales, loss, seed=args.seed
    )
    return {
        "depth": rep.depth,
        "m": rep.m,
        "loss": rep.loss_kind,
        "seed": rep.seed,
        "retries": rep.retries,
        "null_finding": rep.null_finding,
        "max_margin_lambda": rep.max_margin.tolist(),
        "margin": rep.margin,
        "classification_risk": rep.classification_risk,
        "misclassified_mass": rep.classification_risk,
        "rows": [
            {"scale": r.scale, "risk_maxmargin": r.risk_maxmargin,
             "risk_separator": r.risk_separator, "saturated": r.saturated}
            for r in rep.rows
        ],
    }


def cmd_sweep(args) -> dict:
    path = args.config
    with open(path) as fh:
        raw = json.load(fh)
    world = _field(raw, "world", dict, path)
    probs = _field(world, "cell_probs", lambda p: tuple(map(float, p)), path)
    stages = tuple(
        experiments.SweepStage(
            _field(s, "m", int, path), _field(s, "class_index", int, path),
            _field(s, "epsilon", float, path),
        )
        for s in _field(raw, "stages", lambda v: [dict(s) for s in v], path)
    )
    cfg = experiments.SweepConfig(
        world=experiments.LatticeNoiseWorld(probs),
        stages=stages,
        loss=parse_loss(_field(raw, "loss", str, path, "logistic")),
        seed=_field(raw, "seed", int, path),
        replications=_field(raw, "replications", int, path, 20),
    )
    results = experiments.consistency_sweep(cfg)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "stage", "m", "class_size", "epsilon",
        "excess_risk_median", "excess_risk_p90", "replication_count",
    ])
    for r in results:
        writer.writerow([
            r.stage, r.m, r.class_size, r.epsilon,
            r.median, r.p90, len(r.excess_risks),
        ])
    if args.out:
        _write_atomic(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="hardcoreboost")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (atomic write)")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("train", help="fit a weighting by subgradient or coordinate descent")
    p.add_argument("dataset")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--loss", default="exp")
    p.add_argument("--method", choices=["sub", "coord"], default="coord")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--step-scale", type=float, default=1.0)
    p.add_argument("--trace", default=None, help="iteration trace CSV path")
    common(p)

    p = sub.add_parser("hardcore", help="compute and verify a hard-core certificate")
    p.add_argument("dataset")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("bounds", help="evaluate the finite-sample bound calculators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--mu-core", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--approx-error", type=float, default=0.0)
    p.add_argument("--from-certificate", default=None)
    common(p)

    p = sub.add_parser("impossibility", help="staggered-world max-margin risk report")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scales", default="1,2,4,8,16,32")
    p.add_argument("--loss", default="exp")
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("sweep", help="L-SRM consistency sweep from a JSON config")
    p.add_argument("--config", required=True)
    common(p)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "train": cmd_train,
        "hardcore": cmd_hardcore,
        "bounds": cmd_bounds,
        "impossibility": cmd_impossibility,
        "sweep": cmd_sweep,
    }
    try:
        report = handlers[args.command](args)
        if report:
            _emit(report, args.out, args.no_timestamp)
    except (OSError, ValueError, RuntimeError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
