"""The benchmark's four workloads: input pools, one job each, and output checks.

Every workload is a closed loop with one client.  Inputs are generated up
front from the run seed into a fixed pool that the timed loop cycles
through in order, so each pool entry runs several times and its output
bytes can be compared across runs.  A job raises JobFailure when its
output is wrong.  `run` is the timed job; `check` runs after the clock
stops, on the job's files or on the value `run` returned, and returns the
output bytes to compare across runs plus the job's excess risk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from planted import planted_problem, risk_infimum, write_csv


class JobFailure(RuntimeError):
    """A job exited nonzero or produced output that failed its check."""


def _cli(hb, argv):
    code = hb.cli.run(argv)
    if code != 0:
        raise JobFailure(f"cli.run exited {code}: {' '.join(argv)}")


def _take(path) -> bytes:
    """Read an output file and delete it, so a later job cannot pass on it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    os.unlink(path)
    return raw


def _check_core(core, planted_core):
    if list(core) != planted_core.tolist():
        raise JobFailure(f"core {list(core)[:8]}... differs from the planted core")


def certificate_gap(p, m) -> float:
    """Exp-loss risk infimum minus the best dual bound the reweighting p gives.

    The dual -(1/m) sum phi*(s p_j) with phi*(g) = g ln g - g is maximized at
    ln s = -sum p ln p / sum p, where it equals s sum(p) / m; the planted
    infimum is |core| / m, reached exactly when p is constant on the core.
    """
    p = p[p > 0]
    if p.size == 0:
        return 0.0
    s = math.exp(-float(np.sum(p * np.log(p))) / float(p.sum()))
    return (p.size - s * float(p.sum())) / m


def _check_objective(objective, infimum, what):
    if not math.isfinite(objective) or objective < infimum - 1e-9:
        raise JobFailure(f"{what} objective {objective!r} below infimum {infimum!r}")


class Hardcore:
    """CLI `hardcore` on m=160, n=8 planted data, core fractions 0, 0.5, 1.

    lp.solve takes nearly the whole job (m + 1 LPs); optimize and losses do
    nothing, so optimizer changes should show no change here.  The core
    fraction changes the size of the separator LP.
    """

    name = "hardcore"
    m, n = 160, 8
    core_fracs = (0.0, 0.5, 1.0) * 4
    reaches = (
        "cli.run", "lp.solve", "hardcore.compute_hardcore",
        "hardcore.separator_certificate", "hardcore.verify_dichotomy",
        "risk.load_sample_csv", "hypotheses.parse_class_spec", "hypotheses.materialize",
    )

    def make_pool(self, rng, workdir):
        pool = []
        for i, frac in enumerate(self.core_fracs):
            x, y, core = planted_problem(self.m, self.n, frac, rng)
            path = os.path.join(workdir, f"hardcore-{i}.csv")
            write_csv(path, x, y)
            pool.append({"csv": path, "core": core, "out": path[:-4] + ".json",
                         "seed": str(int(rng.integers(2**31)))})
        return pool

    def run(self, hb, inp):
        _cli(hb, ["hardcore", inp["csv"], "--class", f"proj:{self.n}", "--trials", "1000",
                  "--seed", inp["seed"], "--no-timestamp", "--out", inp["out"]])

    def check(self, hb, inp, result):
        raw = _take(inp["out"])
        rep = json.loads(raw)
        _check_core(rep["core"], inp["core"])
        if rep["verification"]["dichotomy_violations"] != 0:
            raise JobFailure("dichotomy violations in the hard-core certificate")
        margin = rep["margin"]  # None encodes +inf, for an empty complement
        empty_complement = len(inp["core"]) == self.m
        if (margin is None) != empty_complement or margin is not None and not margin > 0:
            raise JobFailure(f"separator margin {margin!r} is wrong")
        return raw, certificate_gap(np.asarray(rep["p"]), self.m)


class Train:
    """Three CLI `train` calls per job on one m=2000, n=16 planted CSV.

    Dense features in the diverging-complement regime (core fraction 0.3):
    losses.subgradient, risk and optimize self time dominate; no LPs.
    """

    name = "train"
    m, n, core_frac, pool_size = 2000, 16, 0.3, 6
    calls = (
        ("exp", ["--loss", "exp", "--method", "coord", "--max-iters", "500"]),
        ("logistic", ["--loss", "logistic", "--method", "coord", "--max-iters", "500"]),
        ("hinge", ["--loss", "hinge", "--method", "sub", "--max-iters", "2000"]),
    )
    reaches = (
        "cli.run", "risk.load_sample_csv", "hypotheses.parse_class_spec",
        "hypotheses.materialize", "optimize.coordinate_descent",
        "optimize.subgradient_descent", "losses.subgradient", "losses.value_saturated",
        "risk.margins", "risk.surrogate_risk",
    )

    def make_pool(self, rng, workdir):
        pool = []
        for i in range(self.pool_size):
            x, y, core = planted_problem(self.m, self.n, self.core_frac, rng)
            path = os.path.join(workdir, f"train-{i}.csv")
            write_csv(path, x, y)
            pool.append({"csv": path, "core": core,
                         "outs": [f"{path[:-4]}-{loss}.json" for loss, _ in self.calls]})
        return pool

    def run(self, hb, inp):
        for (_, args), out in zip(self.calls, inp["outs"]):
            _cli(hb, ["train", inp["csv"], "--class", f"proj:{self.n}", *args,
                      "--no-timestamp", "--out", out])

    def check(self, hb, inp, result):
        raws, excess = [], []
        for (loss, _), out in zip(self.calls, inp["outs"]):
            raw = _take(out)
            raws.append(raw)
            objective = json.loads(raw)["objective"]
            inf = risk_infimum(hb.parse_loss(loss), len(inp["core"]), self.m)
            _check_objective(objective, inf, loss)
            excess.append(objective - inf)
        return b"\0".join(raws), float(np.mean(excess))


class Sweep:
    """CLI `sweep`: LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2)), default_schedule(4),
    5 replications, logistic loss, one config seed per pool entry.

    Same optimize and losses layers as train, on sparse 0/1 lattice columns
    with one nonzero per row.
    """

    name = "sweep"
    pool_size, replications = 8, 5
    reaches = (
        "cli.run", "experiments.consistency_sweep", "experiments.LatticeNoiseWorld.sample",
        "experiments.LatticeNoiseWorld.classification_risk", "hypotheses.materialize",
        "optimize.coordinate_descent", "losses.subgradient", "losses.value_saturated",
        "_scalar.golden_min",
    )

    def make_pool(self, rng, workdir):
        from hardcoreboost import default_schedule

        stages = [{"m": s.m, "class_index": s.class_index, "epsilon": s.epsilon}
                  for s in default_schedule(4)]
        pool = []
        for i in range(self.pool_size):
            path = os.path.join(workdir, f"sweep-{i}.json")
            config = {"world": {"cell_probs": [0.8, 0.2, 0.8, 0.2]}, "stages": stages,
                      "loss": "logistic", "seed": int(rng.integers(2**31)),
                      "replications": self.replications}
            with open(path, "w") as fh:
                json.dump(config, fh)
            pool.append({"config": path, "out": path[:-5] + ".csv", "stages": len(stages)})
        return pool

    def run(self, hb, inp):
        _cli(hb, ["sweep", "--config", inp["config"], "--no-timestamp", "--out", inp["out"]])

    def check(self, hb, inp, result):
        raw = _take(inp["out"])
        rows = raw.decode().strip().splitlines()[1:]
        if len(rows) != inp["stages"]:
            raise JobFailure(f"sweep wrote {len(rows)} stages, expected {inp['stages']}")
        excess = []
        for row in rows:
            fields = row.split(",")
            if int(fields[6]) != self.replications:
                raise JobFailure(f"stage {fields[0]} kept {fields[6]} replications")
            excess.append(float(fields[4]))
        return raw, float(np.mean(excess))


class Certify:
    """API pipeline on m=48, n=6 planted data, core fraction 0.5:
    compute_hardcore, coordinate_descent (cone:1,1, 300 iterations),
    suboptimality_certificate, constants_from_certificate, full_risk_bound.

    The only path that runs losses on the dual side (conjugate, with one
    scalar bisect_root per element), bounded_representation's LP and bounds.
    """

    name = "certify"
    m, n, core_frac, pool_size = 48, 6, 0.5, 8
    loss_spec, iters, delta = "cone:1,1", 300, 0.05
    reaches = (
        "lp.solve", "hardcore.compute_hardcore", "hardcore.separator_certificate",
        "hardcore.bounded_representation", "optimize.coordinate_descent",
        "optimize.suboptimality_certificate", "losses.conjugate", "losses.subgradient",
        "_scalar.bisect_root", "_scalar.golden_min", "bounds.constants_from_certificate",
        "bounds.full_risk_bound",
    )

    def make_pool(self, rng, workdir):
        pool = []
        for _ in range(self.pool_size):
            x, y, core = planted_problem(self.m, self.n, self.core_frac, rng)
            pool.append({"x": x, "y": y, "core": core})
        return pool

    def run(self, hb, inp):
        fm = hb.FeatureMatrix(inp["x"], inp["y"])
        loss = hb.parse_loss(self.loss_spec)
        cert = hb.compute_hardcore(fm)
        opt = hb.coordinate_descent(fm, loss, hb.OptimizerConfig(max_iters=self.iters))
        gap = hb.suboptimality_certificate(fm, loss, opt.lam, cert)
        c, b = hb.constants_from_certificate(cert, fm, loss, opt.lam)
        bound = hb.full_risk_bound(
            hb.BoundInputs(m=fm.m, n=fm.n, delta=self.delta, epsilon=max(gap, 0.0),
                           phi0=loss.value_at_origin, mu_core=len(cert.core) / fm.m,
                           c=c, b=b),
            loss,
        )
        return fm, loss, cert, opt, gap, c, b, bound

    def check(self, hb, inp, result):
        fm, loss, cert, opt, gap, c, b, bound = result
        _check_core(cert.core, inp["core"])
        if not cert.margin > 0:
            raise JobFailure(f"separator margin {cert.margin!r} is not positive")
        dich = hb.verify_dichotomy(fm, cert.core, trials=1000, seed=0)
        if dich.violations != 0:
            raise JobFailure("dichotomy violations in the hard-core certificate")
        _check_objective(opt.objective, risk_infimum(loss, len(inp["core"]), fm.m), "cone")
        if not gap >= -1e-9:
            raise JobFailure(f"negative duality gap {gap!r}")
        record = repr((cert.core.tolist(), cert.p.tolist(), opt.lam.tolist(),
                       opt.objective, gap, c, b, bound.total))
        return record.encode(), gap


WORKLOADS = {w.name: w for w in (Hardcore(), Train(), Sweep(), Certify())}


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()
