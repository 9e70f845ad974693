"""Experiment runners at miniature scale: structure, bookkeeping, and
bitwise rerun determinism.  Full-scale behaviour is the acceptance
suite's job."""

import dataclasses
import json

import numpy as np
import pytest

from hypergrad import experiments
from hypergrad.config import ExperimentConfig
from hypergrad.experiments import (RunReport, _f1, run_bench, run_hyperclean,
                                   run_mtl, run_randsearch, run_rtho,
                                   write_report)
from hypergrad.layouts import VectorLayout
from hypergrad.objectives import DatasetValidation, MultitaskLinear


def clean_cfg(**kw):
    base = dict(experiment="clean", seed=0, n_train=24, n_val=24, n_test=40,
                corruption=0.5, inner_steps=30, inner_lr=0.1, radius=12.0,
                hyper_iters=10, hyper_lr=0.05)
    base.update(kw)
    return ExperimentConfig(**base)


def rtho_cfg(**kw):
    base = dict(experiment="rtho", seed=0, n_seeds=1, n_classes=3,
                n_features=6, n_train=60, n_val=30, n_test=30, batch_size=10,
                inner_steps=20, delta=10, hyper_iters=6, hyper_lr=0.01)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# metric helpers


def test_f1_hand_values():
    assert _f1(0, 0, 10) == 0.0
    assert _f1(0, 5, 0) == 0.0
    assert _f1(5, 5, 5) == 1.0
    # precision 0.5, recall 1.0 -> 2/3
    assert abs(_f1(5, 10, 5) - 2 / 3) < 1e-15


# ---------------------------------------------------------------------------
# hypercleaning bookkeeping


def test_hyperclean_counts_are_consistent():
    report = run_hyperclean(clean_cfg())
    m = report.metrics
    assert m["kept"] + m["discarded"] == 24
    assert m["n_corrupted"] == 12
    assert m["tp"] + m["fp"] == m["discarded"]
    assert 0.0 <= m["f1"] <= 1.0
    assert m["weight_sum"] <= 12.0 + 1e-9
    # every hyper-iteration was recorded with cleaning extras attached
    assert len(report.records) == 10
    assert all("f1" in r.extras for r in report.records)


def test_hyperclean_curve_matches_records():
    report = run_hyperclean(clean_cfg(hyper_iters=5))
    header, rows = report.curves["cleaning"]
    assert header[0] == "iter"
    assert len(rows) == 5
    assert [row[0] for row in rows] == [r.index for r in report.records]


def test_hyperclean_rerun_is_bitwise_identical():
    a = run_hyperclean(clean_cfg())
    b = run_hyperclean(clean_cfg())
    assert a.digest() == b.digest()
    assert a.metrics == b.metrics


def test_hyperclean_digest_ignores_out_dir():
    a = run_hyperclean(clean_cfg(out_dir="here"))
    b = run_hyperclean(clean_cfg(out_dir="there"))
    assert a.digest() == b.digest()


def test_hyperclean_seed_changes_results():
    a = run_hyperclean(clean_cfg())
    b = run_hyperclean(clean_cfg(seed=1))
    assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# multitask structure


def test_mtl_report_structure():
    cfg = ExperimentConfig(experiment="mtl", seed=0, n_seeds=2, n_classes=4,
                           n_clusters=2, n_features=8, n_train=16, n_val=16,
                           n_test=40, inner_steps=25, inner_lr=0.01,
                           radius=2.0, hyper_iters=4, hyper_lr=0.05)
    report = run_mtl(cfg)
    m = report.metrics
    for name in ("stl", "nmtl", "hmtl", "hmtl_s"):
        assert set(m[name]) == {"mean", "std", "per_seed"}
        assert len(m[name]["per_seed"]) == 2
    assert m["margin"] == m["hmtl_s"]["mean"] - m["stl"]["mean"]
    c = np.asarray(m["coupling_matrix"])
    assert c.shape == (4, 4)
    assert np.array_equal(c, c.T)
    assert np.all(c >= 0)
    assert c.sum() <= 2.0 + 1e-9


def _without_seconds(timings):
    """Per-seed timings entries without their phase seconds."""
    return [{key: value for key, value in entry.items()
             if not key.endswith("_s")} for entry in timings["seeds"]]


@pytest.mark.parametrize("radius,parted_at", [(1e9, None), (0.5, 4)])
def test_mtl_hmtl_paths_share_until_the_radius_binds(radius, parted_at,
                                                      monkeypatch, tmp_path):
    iters = 6
    cfg = ExperimentConfig(experiment="mtl", seed=0, n_seeds=2, n_classes=4,
                           n_clusters=2, n_features=8, n_train=16, n_val=16,
                           n_test=40, inner_steps=25, inner_lr=0.01,
                           radius=radius, hyper_iters=iters, hyper_lr=0.05)
    fits = []  # the (row, lam bytes) of every fit, one list per call
    fit = experiments._fit

    def counting(obj, n_steps, lr, lam=None):
        fits.append([(int(row), vec.tobytes())
                     for row, vec in zip(obj._rows, lam)])
        return fit(obj, n_steps, lr, lam)
    monkeypatch.setattr(experiments, "_fit", counting)
    report = run_mtl(cfg)
    shared = iters if parted_at is None else parted_at
    # NMTL shares HMTL's start, so its first hypergradient is HMTL's
    want = [{"seed": seed, "hmtl_parted_at": parted_at,
             "hypergradients": iters - 1 + shared + 2 * (iters - shared)}
            for seed in (0, 1)]
    assert _without_seconds(report.timings) == want
    # one block per method: its seconds, not one entry per seed
    assert all(report.timings[key] >= 0.0 for key in ("stl_s", "coupled_s"))
    for seed in (0, 1):
        recs = [r for r in report.records if r.extras["seed"] == seed]
        assert [r.extras["method"] for r in recs] == (
            ["nmtl"] * iters + ["hmtl"] * iters + ["hmtl_s"] * iters)
        hmtl, hmtl_s = recs[iters:2 * iters], recs[2 * iters:]
        differ = [a.index for a, b in zip(hmtl, hmtl_s)
                  if a.lam.tobytes() != b.lam.tobytes()]
        assert (differ[0] if differ else None) == parted_at
    # one retrain per distinct (seed, final model lam), NMTL's too, all
    # in one population; then the STL grid's passes, at coupling 0
    retrained, stl_passes = fits[0], fits[1:]
    assert len(retrained) == len(set(retrained)) == (4 if parted_at is None
                                                     else 6)
    assert len(stl_passes) == 1 + 4
    assert not any(np.frombuffer(lam)[:16].any()
                   for fitted in stl_passes for _, lam in fitted)
    digest = report.digest()
    payload = json.loads((write_report(report, tmp_path)
                          / "metrics.json").read_text())
    assert _without_seconds(payload["timings"]) == want
    report.timings = {}
    assert report.digest() == digest == payload["digest"]


def test_run_mtl_builds_one_model(monkeypatch):
    # STL, NMTL, HMTL and HMTL-S all train on one MultitaskLinear
    built = []

    class Counting(MultitaskLinear):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "MultitaskLinear", Counting)
    run_mtl(ExperimentConfig(experiment="mtl", seed=0, n_seeds=2, n_classes=3,
                             n_clusters=2, n_features=6, n_train=12,
                             n_val=12, n_test=30, inner_steps=10,
                             inner_lr=0.01, hyper_iters=2))
    assert len(built) == 1


# the coupled model of a 3-class mtl run: STL fits it with C = 0
STL_LAYOUT = VectorLayout([("coupling", 9), ("rho", 3)])


def test_stl_grid_fits_each_rho_vector_once(monkeypatch):
    cfg = ExperimentConfig(experiment="mtl", seed=0, n_seeds=2, n_classes=3,
                           n_clusters=2, n_features=6, n_train=12, n_val=12,
                           n_test=30, inner_steps=15, inner_lr=0.01)
    obj, E = experiments._mtl_task(cfg, [0, 1])
    fitted, blocks = [], []
    fit = experiments._fit

    def counting(obj, n_steps, lr, lam):
        # STL is the coupled model with its coupling held at 0
        assert not lam[:, :9].any()
        blocks.append(len(lam))
        fitted.extend((int(row), vec[9:].tobytes())
                      for row, vec in zip(obj._rows, lam))
        return fit(obj, n_steps, lr, lam)

    monkeypatch.setattr(experiments, "_fit", counting)
    grid = experiments._stl_grid(obj, E, cfg)
    # per seed 7 shared values, then 7 per task; the greedy pass
    # revisits the current best vector once per task, and each pass is
    # one block over both seeds
    assert len(fitted) == len(set(fitted))
    for seed in (0, 1):
        mine = [vec for row, vec in fitted if row == seed]
        assert 7 <= len(mine) <= 7 + 3 * 7
        assert grid[seed][1].tobytes() in mine
    assert blocks[0] == 2 * 7 and len(blocks) == 1 + 3
    monkeypatch.undo()
    # each seed's weights are the 1-D fit of the coupled model at C = 0
    # and its chosen vector
    for seed, (w, rho_vec) in enumerate(grid):
        stl = MultitaskLinear(obj.dataset[seed], hyper_layout=STL_LAYOUT,
                              per_task_rho=True)
        assert np.array_equal(w, experiments._fit(
            stl, cfg.inner_steps, cfg.inner_lr,
            STL_LAYOUT.pack(coupling=np.zeros(9), rho=rho_vec)))


def test_stl_grid_matches_the_looped_greedy_sweep():
    # enough steps and features that the ridge matters: the sweep picks
    # a different rho per task for seed 1, whose passes share their
    # blocks with seed 0's
    cfg = ExperimentConfig(experiment="mtl", seed=0, n_seeds=2, n_classes=3,
                           n_clusters=2, n_features=20, n_train=12, n_val=30,
                           n_test=30, inner_steps=150, inner_lr=0.05)
    grid = experiments._stl_grid(*experiments._mtl_task(cfg, [0, 1]), cfg)
    for seed, (got_w, got) in enumerate(grid):
        train, val, _, _ = experiments._mtl_data(cfg, seed)
        stl = MultitaskLinear(train, hyper_layout=STL_LAYOUT,
                              per_task_rho=True)

        def score(rho_vec):
            w = experiments._fit(stl, cfg.inner_steps, cfg.inner_lr,
                                 STL_LAYOUT.pack(coupling=np.zeros(9),
                                                 rho=rho_vec))
            return w, DatasetValidation(val).value(w)

        best = min(experiments._RHO_GRID,
                   key=lambda rho: score(np.full(3, rho))[1])
        rho_vec = np.full(3, best)
        best_score = score(rho_vec)[1]
        for task in range(3):
            for rho in experiments._RHO_GRID:
                trial = rho_vec.copy()
                trial[task] = rho
                _, s = score(trial)
                if s < best_score:
                    rho_vec, best_score = trial, s
        if seed == 1:
            assert len(set(rho_vec.tolist())) == 3
        assert np.array_equal(got, rho_vec)
        assert np.array_equal(got_w, score(rho_vec)[0])


# ---------------------------------------------------------------------------
# real-time tuning structure


def test_rtho_single_seed_report():
    report = run_rtho(rtho_cfg())
    m = report.metrics
    assert m["final_eta"] >= 0.0
    assert 0.0 <= m["final_mu"] <= 1.0
    assert "stream" in report.curves
    header, rows = report.curves["stream"]
    assert "eta" in header and "val_accuracy" in header
    assert len(rows) == len(report.records)


def test_rtho_duel_report_counts_wins():
    report = run_rtho(rtho_cfg(n_seeds=3))
    m = report.metrics
    assert m["n_seeds"] == 3
    assert 0 <= m["rtho_wins"] <= 3
    assert len(m["duels"]) == 3
    for duel in m["duels"]:
        assert set(duel) >= {"seed", "rtho_val_error", "rs_val_error",
                             "rs_trials", "rtho_wins"}
        # equal training budget: trials x steps-per-trial = stream steps
        assert (duel["rs_trials"] * duel["rs_steps_per_trial"]
                <= duel["rtho_steps"])


def test_rtho_rerun_is_bitwise_identical():
    a = run_rtho(rtho_cfg(n_seeds=2))
    b = run_rtho(rtho_cfg(n_seeds=2))
    assert a.digest() == b.digest()


# ---------------------------------------------------------------------------
# bench / random search structure


def test_bench_reports_requested_grid():
    cfg = ExperimentConfig(experiment="bench", seed=0, bench_m="1,3",
                           bench_steps="5,10")
    report = run_bench(cfg)
    t = report.timings
    for m in (1, 3):
        assert m in t["forward_seconds"] and m in t["reverse_seconds"]
        assert t["forward_seconds"][m] > 0
    tape = report.metrics["tape"]
    # a length-T tape stores T+1 states
    assert tape["5"]["states"] == 6
    assert tape["10"]["states"] == 11
    assert tape["10"]["bytes"] > tape["5"]["bytes"]


def test_randsearch_report():
    cfg = ExperimentConfig(experiment="randsearch", seed=0, n_classes=3,
                           n_features=6, n_train=60, n_val=30, n_test=30,
                           batch_size=10, inner_steps=15, budget=4)
    report = run_randsearch(cfg)
    assert report.metrics["trials"] == 4
    assert report.metrics["best_score"] <= max(
        row[1] for row in report.curves["trials"][1])


# ---------------------------------------------------------------------------
# report writer


def test_write_report_emits_all_artifacts(tmp_path):
    report = run_hyperclean(clean_cfg(hyper_iters=3))
    base = write_report(report, tmp_path)
    assert (base / "config.txt").exists()
    assert (base / "records.jsonl").exists()
    assert (base / "metrics.json").exists()
    assert (base / "cleaning.csv").exists()


def test_run_report_is_dataclass_with_defaults():
    fields = {f.name for f in dataclasses.fields(RunReport)}
    assert {"experiment", "config", "records", "metrics",
            "timings", "curves"} <= fields
