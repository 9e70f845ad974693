"""Desk-scale experiment runners and their run reports.

Four experiments:

* ``run_hyperclean`` — per-example weights on a corrupted training set,
  sparsified under a box/L1 budget, then retraining on the kept examples.
* ``run_mtl`` — learning a task-interaction matrix coupling the rows of
  a linear multiclass model, against single-task and uniform baselines.
* ``run_rtho`` — real-time hyperparameter tuning of (eta, mu) during one
  continuous training run, optionally head-to-head against random search
  on an equal inner-step budget.
* ``run_bench`` — wall-time scaling of both engines in the number of
  hyperparameters, and tape growth in the horizon.

Every runner returns a RunReport embedding the full config and seeds;
rerunning the same config reproduces the report's digest bit for bit
(timings are excluded from the digest).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engines
from .config import ExperimentConfig, config_as_dict, config_to_text
from .data_io import corrupt_labels, ingest_idx, write_curves_csv, write_jsonl
from .datasets import (Dataset, MinibatchSchedule, SeedStack, blob_task,
                       clustered_task_data, full_batch_schedule)
from .driver import (LearningRateDecayedToZero, MaxHyperIters, batch_ho_loop,
                     lockstep_ho_loop, stream_ho_loop)
from .dynamics import GradientDescent, Momentum
from .errors import (InfeasibleHypersError, IngestError, NonFiniteError,
                     rescoped, rows_among)
from .layouts import VectorLayout
from .numerics import ensure_finite
from .objectives import DatasetValidation, MultitaskLinear, WeightedSoftmax
from .outer import (BoxL1, Constraints, Exponential, MTLCone, NonNeg,
                    SearchSpace, Uniform, UnitInterval, random_search)

# ---------------------------------------------------------------------------
# Run reports


@dataclass
class RunReport:
    experiment: str
    config: dict
    records: list
    metrics: dict
    timings: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)

    def records_jsonable(self, include_timing=True):
        return [r.to_jsonable(include_timing=include_timing)
                for r in self.records]

    def digest(self) -> str:
        """Hash of everything that must reproduce bitwise across reruns."""
        # where the artifacts land has no bearing on what was computed
        config = {k: v for k, v in self.config.items() if k != "out_dir"}
        payload = {
            "experiment": self.experiment,
            "config": config,
            "records": self.records_jsonable(include_timing=False),
            "metrics": self.metrics,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def write_report(report: RunReport, out_dir):
    """Emit config, records, metrics, and curves under out_dir/<experiment>."""
    base = Path(out_dir) / report.experiment
    base.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(**report.config)
    (base / "config.txt").write_text(config_to_text(cfg))
    write_jsonl(base / "records.jsonl", report.records_jsonable())
    payload = {"metrics": report.metrics, "timings": report.timings,
               "digest": report.digest()}
    (base / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    for name, (header, rows) in report.curves.items():
        write_curves_csv(base / f"{name}.csv", header, rows)
    return base


# ---------------------------------------------------------------------------
# Shared pieces


def _fit(obj, n_steps, lr, lam=None):
    """Weights after ``n_steps`` of GD at rate ``lr`` on ``obj`` from w = 0.

    A (K, m) block of hyper vectors fits K models as one population and
    returns their weights as rows (NaN rows for fits that diverged).
    """
    dyn = GradientDescent(obj, eta=lr)
    lam = np.zeros(0) if lam is None else np.asarray(lam, dtype=np.float64)
    return engines.train(dyn, np.zeros((*lam.shape[:-1], obj.n_params)),
                         lam, n_steps)


def _accuracy_pct(ds, w):
    return 100.0 * DatasetValidation(ds).accuracy(w)


def _f1(n_true_pos, n_pred_pos, n_actual_pos):
    if n_pred_pos == 0 or n_actual_pos == 0:
        return 0.0
    precision = n_true_pos / n_pred_pos
    recall = n_true_pos / n_actual_pos
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Hyper-cleaning


def _load_clean_data(cfg: ExperimentConfig):
    if cfg.train_images is not None:
        pool = ingest_idx(cfg.train_images, cfg.train_labels)
        # the test split takes the pool's rest unless it has files of its own
        need = cfg.n_train + cfg.n_val + (cfg.test_images is None)
        if pool.n < need:
            raise IngestError(f"{cfg.train_images}: {pool.n} images, the "
                              f"splits need {need}")
        if pool.labels.min() == pool.labels.max():
            raise IngestError(f"{cfg.train_labels}: every label is class "
                              f"{pool.labels[0]}; cleaning needs two classes")
        train = pool.subset(np.arange(cfg.n_train))
        val = pool.subset(np.arange(cfg.n_train, cfg.n_train + cfg.n_val))
        if cfg.test_images is not None:
            test = ingest_idx(cfg.test_images, cfg.test_labels)
            if test.n_features != pool.n_features:
                raise IngestError(
                    f"{cfg.test_images}: images of {test.n_features} pixels, "
                    f"training images have {pool.n_features}")
            if test.n_classes > pool.n_classes:
                raise IngestError(
                    f"{cfg.test_labels}: class {test.n_classes - 1} is not "
                    f"among the training classes 0..{pool.n_classes - 1}")
            # a test set may lack the top training classes
            test = Dataset(features=test.features, labels=test.labels,
                           n_classes=pool.n_classes)
        else:
            test = pool.subset(np.arange(cfg.n_train + cfg.n_val, pool.n))
        return train, val, test
    # Mirrored means keep the synthetic task linearly separable for every
    # seed; cleaning only identifies flipped labels when the classes are.
    return blob_task(cfg.seed, cfg.n_train, cfg.n_val, cfg.n_test,
                     n_classes=cfg.n_classes, n_features=cfg.n_features,
                     antipodal=True)


def run_hyperclean(cfg: ExperimentConfig) -> RunReport:
    """Learn per-example weights, discard zero-weight examples, retrain."""
    cfg.validate()
    train, val, test = _load_clean_data(cfg)
    corrupted_train, corrupted_idx = corrupt_labels(train, cfg.corruption,
                                                    cfg.seed)
    corrupted_set = set(int(i) for i in corrupted_idx)
    n = corrupted_train.n

    layout = VectorLayout([("weights", n)])
    schedule = (full_batch_schedule(n) if cfg.batch_size is None
                else MinibatchSchedule(n=n, batch_size=cfg.batch_size,
                                       seed=cfg.seed))
    obj = WeightedSoftmax(corrupted_train, hyper_layout=layout,
                          schedule=schedule, weight_segment="weights")
    dyn = GradientDescent(obj, eta=cfg.inner_lr)
    e_val = DatasetValidation(val)
    constraints = Constraints(layout, {"weights": BoxL1(0.0, 1.0, cfg.radius)})
    s0 = dyn.init_state(np.zeros(obj.n_params))

    def cleaning_extras(lam, _result):
        discarded = np.nonzero(lam == 0.0)[0]
        tp = sum(1 for i in discarded if int(i) in corrupted_set)
        fp = len(discarded) - tp
        return {"discarded": int(len(discarded)), "tp": int(tp), "fp": int(fp),
                "f1": _f1(tp, len(discarded), len(corrupted_set))}

    lam_final, records = batch_ho_loop(
        dyn, e_val, s0, np.ones(n), constraints, cfg.inner_steps,
        stop=MaxHyperIters(cfg.hyper_iters), engine=cfg.engine,
        lr=cfg.hyper_lr, record_extras=cleaning_extras,
    )
    for r in records:
        if not constraints.contains(r.lam):
            raise InfeasibleHypersError(f"infeasible weights recorded at "
                                        f"hyper-iteration {r.index}")

    kept = np.nonzero(lam_final > 0.0)[0]
    discarded = np.nonzero(lam_final == 0.0)[0]
    tp = sum(1 for i in discarded if int(i) in corrupted_set)
    f1 = _f1(tp, len(discarded), len(corrupted_set))

    # retrain on kept-training + validation pool
    pooled = Dataset(
        features=np.vstack([corrupted_train.features[kept], val.features]),
        labels=np.concatenate([corrupted_train.labels[kept], val.labels]),
        n_classes=corrupted_train.n_classes,
    )
    w_clean, w_baseline, w_oracle = (
        _fit(WeightedSoftmax(ds, weight_segment=None), cfg.inner_steps,
             cfg.inner_lr)
        for ds in (pooled, corrupted_train, train))

    metrics = {
        "seed": cfg.seed,
        "n_corrupted": len(corrupted_set),
        "kept": int(len(kept)),
        "discarded": int(len(discarded)),
        "tp": int(tp),
        "fp": int(len(discarded) - tp),
        "f1": f1,
        "test_accuracy": _accuracy_pct(test, w_clean),
        "baseline_accuracy": _accuracy_pct(test, w_baseline),
        "oracle_accuracy": _accuracy_pct(test, w_oracle),
        "weight_sum": float(lam_final.sum()),
    }
    curves = {
        "cleaning": (
            ["iter", "response", "grad_norm", "discarded", "tp", "fp", "f1"],
            [[r.index, r.response, r.grad_norm, r.extras["discarded"],
              r.extras["tp"], r.extras["fp"], r.extras["f1"]] for r in records],
        )
    }
    return RunReport("clean", config_as_dict(cfg), records, metrics,
                     curves=curves)


# ---------------------------------------------------------------------------
# Multitask interaction learning

_RHO_GRID = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)
_RHO_INIT = 0.1


def _mtl_data(cfg, seed, splits=("train", "val", "test")):
    """(train, val, test, cluster_of_class) of ``seed``'s task.

    A split left out of ``splits`` comes back empty. Each split draws
    from its own stream, so leaving one out changes none of the others.
    """
    sizes = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}
    per_class = [max(1, sizes[name] // cfg.n_classes) if name in splits else 0
                 for name in ("train", "val", "test")]
    # Keep prototype pairs ~1.5 apart in feature space no matter the
    # dimension (the spread is per-coordinate), and keep the clusters
    # moderately separated.  With a handful of examples per class the
    # per-class estimates are then noisy enough that relational
    # shrinkage has real headroom over plain per-task ridge.
    spread = 1.5 / np.sqrt(2.0 * cfg.n_features)
    return clustered_task_data(seed, cfg.n_classes, cfg.n_clusters,
                               cfg.n_features, *per_class,
                               cluster_separation=2.0, class_spread=spread)


def _mtl_task(cfg, seeds):
    """(training sets, validation errors) at ``seeds``.

    The training sets of all seeds are one ``SeedStack``; each seed's
    validation error is its own. Only the training and validation
    splits are drawn: a seed's test split is drawn when it is scored.
    """
    trains, e_vals = [], []
    for seed in seeds:
        train, val, _, _ = _mtl_data(cfg, seed, ("train", "val"))
        trains.append(train)
        e_vals.append(DatasetValidation(val))
    stack = SeedStack(np.stack([train.features for train in trains]),
                      np.stack([train.labels for train in trains]),
                      cfg.n_classes)
    return stack, e_vals


def _stl_grid(stack, e_vals, cfg):
    """Per-task ridge sweep on every set: shared value first, then a
    greedy pass per task.

    Each pass fits the candidate rho vectors of every set as one
    population, each row on its own set: the shared values, then per
    task each set's current best vector with that task's entry swept
    over the grid (the rest of the vector cannot change within the
    pass). Fits are memoised per set on the vector's bytes, so each
    distinct vector trains once per set, and candidates are taken in
    grid order: a strictly lower validation error wins. Returns one
    (weights, rho vector) per set.
    """
    n_sets, k = len(stack), stack.n_classes
    obj = MultitaskLinear(stack, hyper_layout=VectorLayout([("rho", k)]),
                          coupling="none", per_task_rho=True)
    fits = [{} for _ in range(n_sets)]  # one memo per set
    best = [(None, np.inf)] * n_sets  # (rho vector, validation error)

    def greedy_pass(candidates):
        """Fit each set's new candidate rows, then take each set's best."""
        new = [(i, vec) for i, cands in enumerate(candidates)
               for vec in {c.tobytes(): c for c in cands
                           if c.tobytes() not in fits[i]}.values()]
        if new:
            rows = np.array([i for i, _ in new])
            ws = _fit(obj.take(rows), cfg.inner_steps, cfg.inner_lr,
                      np.array([vec for _, vec in new]))
            for (i, vec), w in zip(new, ws):
                try:
                    fits[i][vec.tobytes()] = w, e_vals[i].value(w)
                except NonFiniteError as err:  # the fit diverged
                    err.rows = np.arange(n_sets) == i
                    raise
        for i, cands in enumerate(candidates):
            for vec in cands:
                score = fits[i][vec.tobytes()][1]
                if score < best[i][1]:
                    best[i] = vec, score

    greedy_pass([[np.full(k, rho) for rho in _RHO_GRID]] * n_sets)
    for task in range(k):
        candidates = []
        for vec, _ in best:
            swept = np.tile(vec, (len(_RHO_GRID), 1))
            swept[:, task] = _RHO_GRID
            candidates.append(list(swept))
        greedy_pass(candidates)
    return [(fits[i][vec.tobytes()][0], vec) for i, (vec, _) in enumerate(best)]


def _coupled_runs(stack, e_vals, cfg, mode, radii=(None,)):
    """Hyper-optimize a coupled model on every set, once per coupling
    radius, in lockstep.

    Every (set, radius) is one path of one lockstep problem over the
    stack: each hyper-iteration computes all their hypergradients as one
    block, and the radii of a set share each hypergradient while their
    lam agree. The final retrains, one per distinct (set, final lam),
    run as one population. Returns, per set, one (weights, final lam,
    records, coupling) per radius, and the number of hypergradients
    computed per set.
    """
    k, n_sets = stack.n_classes, len(stack)
    if mode == "uniform":
        layout = VectorLayout([("coupling", 1), ("rho", 1)])
        lam0 = layout.pack(coupling=0.0, rho=_RHO_INIT)
        obj_kwargs = dict(coupling="uniform", per_task_rho=False)
    else:
        layout = VectorLayout([("coupling", k * k), ("rho", k)])
        lam0 = layout.pack(coupling=np.zeros(k * k), rho=np.full(k, _RHO_INIT))
        obj_kwargs = dict(coupling="full", per_task_rho=True)
    obj = MultitaskLinear(stack, hyper_layout=layout, **obj_kwargs)
    dyn = GradientDescent(obj, eta=cfg.inner_lr)
    constraints = [
        Constraints(layout, {"coupling": NonNeg() if mode == "uniform"
                             else MTLCone(r), "rho": NonNeg()})
        for r in radii
    ]
    starts = [(row, cons) for row in range(n_sets) for cons in constraints]
    paths, n_computed = lockstep_ho_loop(
        dyn, e_vals, np.zeros((n_sets, obj.n_params)),
        [(lam0, cons, MaxHyperIters(cfg.hyper_iters), row)
         for row, cons in starts],
        cfg.inner_steps, engine=cfg.engine, lr=cfg.hyper_lr,
    )
    finals = {}  # one retrain per distinct (set, final lam)
    for (row, cons), (lam, records) in zip(starts, paths):
        for r in records:
            if not cons.contains(r.lam):
                raise InfeasibleHypersError(
                    f"infeasible hypers at hyper-iteration {r.index}")
        finals.setdefault((row, lam.tobytes()), (row, lam))
    rows = np.array([row for row, _ in finals.values()])
    ws = _fit(obj.take(rows), cfg.inner_steps, cfg.inner_lr,
              np.array([lam for _, lam in finals.values()]))
    try:
        ensure_finite(ws, "retrained weights")
    except NonFiniteError as err:
        raise rows_among(err, rows, n_sets)
    weights = dict(zip(finals, ws))
    runs = [[] for _ in range(n_sets)]
    for (row, _), (lam, records) in zip(starts, paths):
        runs[row].append((weights[row, lam.tobytes()], lam, records,
                          obj._coupling_matrix(lam)))
    return runs, n_computed


def _parted_at(records_a, records_b):
    """First hyper-iteration whose lam differs between two paths, or None."""
    for a, b in zip(records_a, records_b):
        if a.lam.tobytes() != b.lam.tobytes():
            return a.index
    return None


@contextmanager
def _seeds_named(seeds):
    """Rescope a NonFiniteError that marks rows with the seeds of those rows."""
    try:
        yield
    except NonFiniteError as err:
        if err.rows is None:
            raise
        failed = ", ".join(str(seeds[i]) for i in np.flatnonzero(err.rows))
        raise rescoped(err, f"seed {failed}") from err


def run_mtl(cfg: ExperimentConfig) -> RunReport:
    """STL / NMTL / HMTL / HMTL-S comparison over seeded splits.

    Every method runs all seeds as one block over a stack of the seeds'
    training sets, each seed bit for bit what it gives alone: NMTL as
    one lockstep problem, HMTL and HMTL-S as another (two paths per
    seed, sharing every hypergradient until the HMTL-S radius binds),
    and the STL grid's passes as populations. A seed's test split is
    drawn only when its accuracies are scored. ``timings`` gives the
    seconds of each block (``uniform_s`` for NMTL, ``full_s`` for HMTL
    and HMTL-S, ``stl_s`` for the grid) and, per seed, the
    hyper-iteration where HMTL and HMTL-S parted (None if they never
    did) and the number of hypergradients computed.
    """
    cfg.validate()
    seeds = [cfg.seed + rep for rep in range(cfg.n_seeds)]
    stack, e_vals = _mtl_task(cfg, seeds)
    timings = {}
    with _seeds_named(seeds):
        started = time.perf_counter()
        nmtl, n_uniform = _coupled_runs(stack, e_vals, cfg, "uniform")
        timings["uniform_s"] = time.perf_counter() - started
        started = time.perf_counter()
        full, n_full = _coupled_runs(stack, e_vals, cfg, "full",
                                     radii=(None, cfg.radius))
        timings["full_s"] = time.perf_counter() - started
        started = time.perf_counter()
        stl = _stl_grid(stack, e_vals, cfg)
        timings["stl_s"] = time.perf_counter() - started

    methods = {"stl": [], "nmtl": [], "hmtl": [], "hmtl_s": []}
    all_records = []
    couplings = {"hmtl": [], "hmtl_s": []}
    per_seed = []
    for i, seed in enumerate(seeds):
        _, _, test, _ = _mtl_data(cfg, seed, ("test",))
        methods["stl"].append(_accuracy_pct(test, stl[i][0]))
        [(w, _, recs, _)] = nmtl[i]
        methods["nmtl"].append(_accuracy_pct(test, w))
        _tag_records(recs, all_records, seed=seed, method="nmtl")
        for name, (w, _, recs, c_mat) in zip(("hmtl", "hmtl_s"), full[i]):
            methods[name].append(_accuracy_pct(test, w))
            _tag_records(recs, all_records, seed=seed, method=name)
            couplings[name].append(c_mat)
        per_seed.append({"seed": seed,
                         "hmtl_parted_at": _parted_at(full[i][0][2],
                                                      full[i][1][2]),
                         "hypergradients": n_uniform[i] + n_full[i]})

    metrics = {"seeds": seeds}
    for name, accs in methods.items():
        metrics[name] = {"mean": float(np.mean(accs)),
                         "std": float(np.std(accs)),
                         "per_seed": [float(a) for a in accs]}
    metrics["margin"] = metrics["hmtl_s"]["mean"] - metrics["stl"]["mean"]
    metrics["coupling_matrix"] = [[float(v) for v in row]
                                  for row in couplings["hmtl_s"][-1]]
    metrics["coupling_matrices"] = {
        name: [[[float(v) for v in row] for row in c] for c in mats]
        for name, mats in couplings.items()
    }
    curves = {
        "accuracy": (
            ["seed", "stl", "nmtl", "hmtl", "hmtl_s"],
            [[seed] + [methods[m][r] for m in
                       ("stl", "nmtl", "hmtl", "hmtl_s")]
             for r, seed in enumerate(seeds)],
        )
    }
    return RunReport("mtl", config_as_dict(cfg), all_records, metrics,
                     timings={**timings, "seeds": per_seed}, curves=curves)


def _tag_records(records, sink, **tags):
    for r in records:
        r.extras = {**tags, **r.extras}
        sink.append(r)


# ---------------------------------------------------------------------------
# Real-time tuning and the random-search head-to-head


def _rtho_task(cfg, seeds):
    """(hyper layout, training sets, validation errors) at ``seeds``.

    The training sets of all seeds are one ``SeedStack``; each seed's
    validation error is its own. Only the training and validation
    splits are drawn (the test split would go unread).
    """
    shape = (len(seeds), cfg.n_train)
    features = np.empty((*shape, cfg.n_features))
    labels = np.empty(shape, dtype=np.int64)
    e_vals = []
    for i, seed in enumerate(seeds):
        train, val, _ = blob_task(seed, cfg.n_train, cfg.n_val, 0,
                                  n_classes=cfg.n_classes,
                                  n_features=cfg.n_features)
        features[i], labels[i] = train.features, train.labels
        e_vals.append(DatasetValidation(val, subset_size=cfg.val_subset,
                                        subset_seed=seed))
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    return layout, SeedStack(features, labels, cfg.n_classes), e_vals


def _rtho_dynamics(cfg, layout, train, seeds):
    """Momentum on the unit-weight softmax over ``train``.

    ``train`` is one Dataset (of ``seeds[0]``) or a SeedStack with one
    training set per seed; each seed's minibatches come from its own
    schedule.
    """
    schedules = [MinibatchSchedule(n=cfg.n_train, batch_size=cfg.batch_size,
                                   seed=seed) for seed in seeds]
    obj = WeightedSoftmax(
        train, hyper_layout=layout, weight_segment=None,
        schedule=schedules if isinstance(train, SeedStack) else schedules[0])
    return Momentum(obj, eta="eta", mu="mu")


def _rtho_streams(cfg, seeds, task):
    """The real-time streams of ``seeds`` as one block; a summary per seed."""
    layout, stack, e_vals = task
    dyn = _rtho_dynamics(cfg, layout, stack, seeds)
    e_trains = [DatasetValidation(stack[i]) for i in range(len(seeds))]
    s0 = np.tile(dyn.init_state(np.zeros(dyn.objective.n_params)),
                 (len(seeds), 1))
    # null teacher: hypers start dead
    lam0 = np.tile(layout.pack(eta=0.0, mu=0.0), (len(seeds), 1))

    def stream_extras(lam, emission):
        w = dyn.weights_of(emission.state)
        return {"eta": float(layout.get(lam, "eta")[0]),
                "mu": float(layout.get(lam, "mu")[0]),
                "val_accuracy": 100.0 * e_vals[emission.row].accuracy(w),
                "train_accuracy": 100.0 * e_trains[emission.row].accuracy(w)}

    stop = [MaxHyperIters(cfg.hyper_iters),
            LearningRateDecayedToZero(layout, "eta")]
    constraints = Constraints(layout, {"eta": NonNeg(), "mu": UnitInterval()})
    with _seeds_named(seeds):
        runs = stream_ho_loop(dyn, e_vals, s0, lam0, constraints, cfg.delta,
                              stop, lr=cfg.hyper_lr,
                              record_extras=stream_extras)
    summaries = []
    for _, records in runs:
        final = records[-1]
        summaries.append({
            "records": records,
            "best_val_error": min(r.response for r in records),
            "final_val_error": final.response,
            "final_val_accuracy": final.extras["val_accuracy"],
            "final_eta": final.extras["eta"], "final_mu": final.extras["mu"],
            "total_steps": final.step,
        })
    return summaries


# Floats in one population of random-search trials: more trials train
# as several populations, so memory stays flat as the budget grows.
_POPULATION_FLOATS = 1 << 18


def _random_search_baseline(cfg, seed, total_steps, task):
    """Equal-inner-step-budget random search over (eta, mu).

    ``task`` is (layout, training set, validation error) of ``seed``.
    """
    layout, train, e_val = task
    dyn = _rtho_dynamics(cfg, layout, train, [seed])
    steps_per_trial = max(1, cfg.inner_steps)
    n_trials = max(1, total_steps // steps_per_trial)
    space = SearchSpace(layout, {"eta": Exponential(0.1),
                                 "mu": Uniform(0.0, 1.0)})
    s0 = dyn.init_state(np.zeros(dyn.objective.n_params))
    rows = max(1, _POPULATION_FLOATS // len(s0))

    def evaluate(lams):
        """Train the trials as populations of at most ``rows`` rows.

        Each row's result does not depend on the population it is in;
        a trial that diverged scores inf.
        """
        scores = []
        for lo in range(0, len(lams), rows):
            block = lams[lo:lo + rows]
            s_t = engines.train(dyn, np.tile(s0, (len(block), 1)), block,
                                steps_per_trial)
            scores += [_score_or_inf(e_val, w) for w in dyn.weights_of(s_t)]
        return scores

    result = random_search(space, evaluate, n_trials, seed)
    return result, n_trials, steps_per_trial


def _score_or_inf(e_val, w):
    """Validation error at ``w``; inf if training or the error went non-finite."""
    try:
        return e_val.value(w)
    except NonFiniteError:
        return np.inf


def run_rtho(cfg: ExperimentConfig) -> RunReport:
    """Null-teacher real-time tuning; multi-seed configs add the RS duel.

    The streams of all seeds run as one block. A multi-seed report's
    ``timings`` gives the seconds of that block (``stream_s``) and, per
    seed, of its random-search baseline (``random_search_s``), which
    trains on the seed's own training set from the block's stack.
    """
    cfg.validate()
    seeds = [cfg.seed + rep for rep in range(cfg.n_seeds)]
    layout, stack, e_vals = task = _rtho_task(cfg, seeds)
    started = time.perf_counter()
    runs = _rtho_streams(cfg, seeds, task)
    stream_s = time.perf_counter() - started
    if cfg.n_seeds == 1:
        [run] = runs
        records = run["records"]
        metrics = {
            "seed": cfg.seed,
            "best_val_error": run["best_val_error"],
            "final_val_error": run["final_val_error"],
            "final_val_accuracy": run["final_val_accuracy"],
            "final_eta": run["final_eta"],
            "final_mu": run["final_mu"],
            "total_steps": run["total_steps"],
        }
        curves = {
            "stream": (
                ["step", "response", "grad_norm", "eta", "mu",
                 "train_accuracy", "val_accuracy"],
                [[r.step, r.response, r.grad_norm, r.extras["eta"],
                  r.extras["mu"], r.extras["train_accuracy"],
                  r.extras["val_accuracy"]] for r in records],
            )
        }
        return RunReport("rtho", config_as_dict(cfg), records, metrics,
                         curves=curves)

    # head-to-head across seeds on an equal inner-step budget
    all_records = []
    duels = []
    per_seed = []
    for i, (seed, run) in enumerate(zip(seeds, runs)):
        _tag_records(run["records"], all_records, seed=seed, method="rtho")
        searched = time.perf_counter()
        rs, n_trials, steps_per_trial = _random_search_baseline(
            cfg, seed, run["total_steps"], (layout, stack[i], e_vals[i]))
        per_seed.append({"seed": seed,
                         "random_search_s": time.perf_counter() - searched})
        duels.append({
            "seed": seed,
            "rtho_val_error": run["best_val_error"],
            "rs_val_error": rs.best.score,
            "rs_trials": n_trials,
            "rs_steps_per_trial": steps_per_trial,
            "rtho_steps": run["total_steps"],
            "rtho_wins": bool(run["best_val_error"] <= rs.best.score),
        })
    wins = sum(1 for d in duels if d["rtho_wins"])
    metrics = {"duels": duels, "rtho_wins": wins, "n_seeds": cfg.n_seeds}
    curves = {
        "head_to_head": (
            ["seed", "rtho_val_error", "rs_val_error", "rtho_wins"],
            [[d["seed"], d["rtho_val_error"], d["rs_val_error"],
              int(d["rtho_wins"])] for d in duels],
        )
    }
    return RunReport("rtho", config_as_dict(cfg), all_records, metrics,
                     timings={"stream_s": stream_s, "seeds": per_seed},
                     curves=curves)


def run_randsearch(cfg: ExperimentConfig) -> RunReport:
    """Standalone random-search baseline on the streaming task."""
    cfg.validate()
    layout, stack, [e_val] = _rtho_task(cfg, [cfg.seed])
    result, n_trials, steps_per_trial = _random_search_baseline(
        cfg, cfg.seed, cfg.budget * cfg.inner_steps, (layout, stack[0], e_val))
    metrics = {
        "seed": cfg.seed,
        "trials": n_trials,
        "steps_per_trial": steps_per_trial,
        "best_score": result.best.score,
        "best_lam": [float(v) for v in result.best.lam],
        "failed_trials": sum(1 for tr in result.trials if tr.failed),
    }
    curves = {
        "trials": (
            ["trial", "score", "eta", "mu", "failed"],
            [[tr.index, tr.score, float(tr.lam[0]), float(tr.lam[1]),
              int(tr.failed)] for tr in result.trials],
        )
    }
    return RunReport("randsearch", config_as_dict(cfg), [], metrics,
                     curves=curves)


# ---------------------------------------------------------------------------
# Complexity benchmark


_BENCH_CLASSES = 10
_BENCH_FEATURES = 100
_BENCH_BATCH = 4
_BENCH_TIMING_STEPS = 60
_BENCH_REPEATS = 3


def _bench_instance(cfg, m):
    """Weighted-softmax instance with exactly m example-weight hypers."""
    n_val = 64
    train, val, _ = blob_task(cfg.seed, max(m, 1), n_val, 1,
                              n_classes=_BENCH_CLASSES,
                              n_features=_BENCH_FEATURES)
    layout = VectorLayout([("weights", m)])
    schedule = MinibatchSchedule(n=m, batch_size=min(_BENCH_BATCH, m),
                                 seed=cfg.seed)
    obj = WeightedSoftmax(train, hyper_layout=layout, schedule=schedule,
                          weight_segment="weights")
    dyn = GradientDescent(obj, eta=0.05)
    e_val = DatasetValidation(val)
    s0 = dyn.init_state(np.zeros(obj.n_params))
    lam = np.full(m, 1.0)
    return dyn, e_val, s0, lam


def _best_time(fn, repeats=_BENCH_REPEATS):
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_bench(cfg: ExperimentConfig) -> RunReport:
    """Measure per-hypergradient wall time vs m and tape growth vs T."""
    from .engines import forward_hg, reverse_hg  # local to keep import cheap

    cfg.validate()
    m_values = cfg.int_list("bench_m")
    step_values = cfg.int_list("bench_steps")

    forward_rows, reverse_rows = [], []
    for m in m_values:
        dyn, e_val, s0, lam = _bench_instance(cfg, m)
        forward_hg(dyn, e_val, s0, lam, 2)  # warm caches before timing
        fwd = _best_time(lambda: forward_hg(dyn, e_val, s0, lam,
                                            _BENCH_TIMING_STEPS))
        rev = _best_time(lambda: reverse_hg(dyn, e_val, s0, lam,
                                            _BENCH_TIMING_STEPS))
        forward_rows.append([m, fwd])
        reverse_rows.append([m, rev])

    tape_rows = []
    dyn, e_val, s0, lam = _bench_instance(cfg, 10)
    for n_steps in step_values:
        result = reverse_hg(dyn, e_val, s0, lam, n_steps)
        tape_rows.append([n_steps, len(result.tape), result.tape.nbytes()])

    fwd_by_m = {int(m): s for m, s in forward_rows}
    rev_by_m = {int(m): s for m, s in reverse_rows}
    timings = {
        "forward_seconds": fwd_by_m,
        "reverse_seconds": rev_by_m,
        "timing_steps": _BENCH_TIMING_STEPS,
    }
    if 10 in fwd_by_m and 100 in fwd_by_m:
        timings["forward_ratio_100_10"] = fwd_by_m[100] / fwd_by_m[10]
        timings["reverse_ratio_100_10"] = rev_by_m[100] / rev_by_m[10]
    metrics = {
        "state_dim": _BENCH_CLASSES * (_BENCH_FEATURES + 1),
        "tape": {str(row[0]): {"states": row[1], "bytes": row[2]}
                 for row in tape_rows},
        "m_values": m_values,
        "step_values": step_values,
    }
    curves = {
        "forward_time": (["m", "seconds"], forward_rows),
        "reverse_time": (["m", "seconds"], reverse_rows),
        "tape": (["steps", "states", "bytes"], tape_rows),
    }
    return RunReport("bench", config_as_dict(cfg), [], metrics,
                     timings=timings, curves=curves)
