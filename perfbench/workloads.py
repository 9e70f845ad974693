"""The benchmark's workloads: one ``hypergrad`` CLI run each.

Every workload owns its config (the benchmark never reads ``configs/``,
so editing a canonical config cannot silently change what is measured).
The ``--seed`` of the benchmark becomes the config's ``seed`` and
nothing else; multi-seed experiments use seeds ``seed .. seed+n-1``.

Each workload also knows how to check its own outputs:

* ``expected_records`` — the record count the config asks for;
* ``feasible`` — whether one record's hyperparameters lie in the
  constraint set the experiment projects onto;
* ``quality`` — the headline quality metrics, compared at the default
  seed against ``reference.json``;
* ``oracle_problem`` — the same problem rebuilt from the public API, so
  that ``forward_hg`` and ``reverse_hg`` can be compared at lambda_0.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
FEAS_TOL = 1e-9

# ---------------------------------------------------------------------------
# Configs

_CLEAN_WIDE = {
    "n_train": 100, "n_val": 200, "n_test": 400, "n_classes": 10,
    "n_features": 100, "corruption": 0.5, "batch_size": 4,
    "inner_steps": 20, "inner_lr": 0.1, "radius": 50.0,
    "hyper_iters": 100, "hyper_lr": 0.005,
}

_RTHO = {
    "n_seeds": 5, "n_classes": 5, "n_features": 20, "n_train": 2000,
    "n_val": 500, "n_test": 1000, "batch_size": 20, "inner_steps": 200,
    "delta": 50, "hyper_iters": 150, "hyper_lr": 0.005,
}

_MTL = {
    "n_seeds": 2, "n_classes": 4, "n_clusters": 2, "n_features": 60,
    "n_train": 32, "n_val": 40, "n_test": 800, "inner_steps": 400,
    "inner_lr": 0.005, "radius": 4.0, "hyper_iters": 17,
    "hyper_lr": 0.05, "engine": "reverse",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # hypergrad subcommand
    config: dict          # benchmark-owned config, without experiment/seed
    flags: tuple = ()     # extra CLI flags

    def config_text(self, seed):
        lines = [f"experiment = {self.command}", f"seed = {seed}"]
        lines += [f"{key} = {value}" for key, value in self.config.items()]
        return "\n".join(lines) + "\n"

    def cli_argv(self, config_path, out_dir):
        return [self.command, "--config", str(config_path),
                "--out", str(out_dir), *self.flags]


WORKLOADS = {
    w.name: w for w in (
        Workload("clean-wide-fwd", "clean", _CLEAN_WIDE,
                 ("--engine", "forward")),
        Workload("rtho-duel", "rtho", _RTHO),
        Workload("mtl-2seed", "mtl", _MTL),
    )
}

# ---------------------------------------------------------------------------
# Output checks


def configured_records(workload):
    """Hyper-iteration records one run of the workload's config asks for."""
    cfg = workload.config
    per_seed = {"clean": 1, "rtho": 1, "mtl": 3}[workload.command]
    return cfg.get("n_seeds", 1) * per_seed * cfg["hyper_iters"]


def expected_records(workload, records):
    """Problems with the record count, as a list of messages (empty: ok)."""
    cfg = workload.config
    if workload.command != "rtho":
        want = configured_records(workload)
        return [] if len(records) == want else [
            f"{len(records)} records, config asks for {want}"]
    # rtho: hyper_iters emissions per seed, unless the documented stop rule
    # (eta projected to 0 on two consecutive emissions) fired first
    problems = []
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], []).append(rec)
    if len(by_seed) != cfg["n_seeds"]:
        problems.append(f"{len(by_seed)} seeds recorded, "
                        f"config asks for {cfg['n_seeds']}")
    for seed, recs in by_seed.items():
        n = len(recs)
        stopped = n >= 2 and recs[-1]["eta"] == 0.0 and recs[-2]["eta"] == 0.0
        if n != cfg["hyper_iters"] and not (n < cfg["hyper_iters"] and stopped):
            problems.append(f"seed {seed}: {n} records, config asks for "
                            f"{cfg['hyper_iters']}")
    return problems


def _box(values, lo, hi):
    return all(lo - FEAS_TOL <= v <= hi + FEAS_TOL for v in values)


def _cone(flat, radius):
    k = int(round(len(flat) ** 0.5))
    mat = [flat[i * k:(i + 1) * k] for i in range(k)]
    symmetric = all(mat[i][j] == mat[j][i] for i in range(k) for j in range(k))
    ok = symmetric and _box(flat, 0.0, float("inf"))
    return ok and (radius is None or sum(flat) <= radius + FEAS_TOL)


def feasible(workload, rec):
    """Whether one record's lambda lies in the experiment's constraint set."""
    cfg = workload.config
    lam = rec.get("lam")
    if workload.command == "clean":
        # BoxL1(0, 1, radius) over the example weights
        if lam is None:
            lo, hi, total = rec["lam_min"], rec["lam_max"], rec["lam_sum"]
        else:
            lo, hi, total = min(lam), max(lam), sum(lam)
        return _box([lo, hi], 0.0, 1.0) and total <= cfg["radius"] + FEAS_TOL
    if workload.command == "rtho":
        # eta NonNeg, mu UnitInterval
        eta, mu = lam
        return eta >= -FEAS_TOL and _box([mu], 0.0, 1.0)
    # mtl: coupling NonNeg (nmtl) or MTLCone (hmtl, hmtl_s with the
    # radius); rho NonNeg
    if rec["method"] == "nmtl":
        return _box(lam, 0.0, float("inf"))
    k = cfg["n_classes"]
    radius = cfg["radius"] if rec["method"] == "hmtl_s" else None
    return _cone(lam[:k * k], radius) and _box(lam[k * k:], 0.0, float("inf"))


def quality(workload, metrics):
    """Headline quality metrics of one run, flattened to name -> number."""
    if workload.command == "clean":
        return {key: metrics[key] for key in
                ("f1", "test_accuracy", "baseline_accuracy", "oracle_accuracy")}
    if workload.command == "rtho":
        return {"rtho_wins": metrics["rtho_wins"]}
    return {name: metrics[name]["mean"]
            for name in ("stl", "nmtl", "hmtl", "hmtl_s")}


# Allowed absolute distance from the reference, per quality metric.
QUALITY_TOLERANCE = {
    "f1": 0.05, "test_accuracy": 2.0, "baseline_accuracy": 2.0,
    "oracle_accuracy": 2.0, "rtho_wins": 1, "stl": 1.0, "nmtl": 1.0,
    "hmtl": 1.0, "hmtl_s": 1.0,
}

# ---------------------------------------------------------------------------
# Oracle problems, rebuilt from the public API


def oracle_problem(workload, seed):
    """(dyn, E, s0, lams, T) of the workload's hypergradient problem.

    ``lams`` are the points to compare the engines at. The first is
    lambda_0: for the batch experiments the first hyper-iteration's
    (projected as the loop projects it); for the real-time run the null
    start of the first emission's horizon (``delta`` steps). That start
    (eta = mu = 0) leaves the weights and velocity at 0, so the
    real-time run is also checked at eta = 0.2, mu = 0.5. The multitask
    problem is HMTL-S, the one with the most hyperparameters.
    """
    import numpy as np

    from hypergrad import (BoxL1, Constraints, DatasetValidation,
                           GradientDescent, MinibatchSchedule, Momentum,
                           MTLCone, MultitaskLinear, NonNeg, VectorLayout,
                           WeightedSoftmax, full_batch_schedule)
    from hypergrad.data_io import corrupt_labels
    from hypergrad.datasets import blob_task, clustered_task_data

    cfg = workload.config
    if workload.command == "clean":
        train, val, _ = blob_task(seed, cfg["n_train"], cfg["n_val"],
                                  cfg["n_test"], n_classes=cfg["n_classes"],
                                  n_features=cfg["n_features"], antipodal=True)
        train, _ = corrupt_labels(train, cfg["corruption"], seed)
        n = train.n
        layout = VectorLayout([("weights", n)])
        schedule = (full_batch_schedule(n) if "batch_size" not in cfg else
                    MinibatchSchedule(n=n, batch_size=cfg["batch_size"],
                                      seed=seed))
        obj = WeightedSoftmax(train, hyper_layout=layout, schedule=schedule,
                              weight_segment="weights")
        dyn = GradientDescent(obj, eta=cfg["inner_lr"])
        rules = Constraints(layout, {"weights": BoxL1(0.0, 1.0, cfg["radius"])})
        lam0 = rules.project(np.ones(n))
        return (dyn, DatasetValidation(val), dyn.init_state(np.zeros(obj.n_params)),
                [lam0], cfg["inner_steps"])
    if workload.command == "rtho":
        train, val, _ = blob_task(seed, cfg["n_train"], cfg["n_val"],
                                  cfg["n_test"], n_classes=cfg["n_classes"],
                                  n_features=cfg["n_features"])
        layout = VectorLayout([("eta", 1), ("mu", 1)])
        schedule = MinibatchSchedule(n=train.n, batch_size=cfg["batch_size"],
                                     seed=seed)
        obj = WeightedSoftmax(train, hyper_layout=layout, schedule=schedule,
                              weight_segment=None)
        dyn = Momentum(obj, eta="eta", mu="mu")
        lams = [layout.pack(eta=0.0, mu=0.0), layout.pack(eta=0.2, mu=0.5)]
        return (dyn, DatasetValidation(val), dyn.init_state(np.zeros(obj.n_params)),
                lams, cfg["delta"])
    k = cfg["n_classes"]
    spread = 1.5 / np.sqrt(2.0 * cfg["n_features"])
    train, val, _, _ = clustered_task_data(
        seed, k, cfg["n_clusters"], cfg["n_features"],
        max(1, cfg["n_train"] // k), max(1, cfg["n_val"] // k),
        max(1, cfg["n_test"] // k), cluster_separation=2.0,
        class_spread=spread)
    layout = VectorLayout([("coupling", k * k), ("rho", k)])
    obj = MultitaskLinear(train, hyper_layout=layout, coupling="full",
                          per_task_rho=True)
    dyn = GradientDescent(obj, eta=cfg["inner_lr"])
    rules = Constraints(layout, {"coupling": MTLCone(cfg["radius"]),
                                 "rho": NonNeg()})
    lam0 = rules.project(layout.pack(coupling=np.zeros(k * k),
                                     rho=np.full(k, 0.1)))
    return (dyn, DatasetValidation(val), dyn.init_state(np.zeros(obj.n_params)),
            [lam0], cfg["inner_steps"])
