"""Correctness gates of the benchmark (all untimed).

* ``check_run`` — one CLI run's artifacts: record count, feasibility of
  every recorded lambda, and the digest it reports;
* ``check_quality`` — quality metrics at the default seed against the
  values recorded at the commit that defined the benchmark;
* ``DigestLedger`` — the ``metrics.json`` digest must be identical for
  every run of one source tree and seed;
* ``oracle_check`` — ``forward_hg`` and ``reverse_hg`` agree at lambda_0
  on the workload's problem rebuilt from the public API;
* ``self_test`` — the tracer sees every call: on tiny instances its
  counts reproduce the paper's closed forms exactly.

Each reports its problems as a list of messages; an empty list means
the check passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads

ORACLE_REL_GAP = 1e-10
HERE = Path(__file__).resolve().parent


def check_run(workload, out_dir):
    """(digest, quality metrics, record seconds, problems) of one CLI run."""
    base = Path(out_dir) / workload.command
    try:
        records = [json.loads(line) for line in
                   (base / "records.jsonl").read_text().splitlines() if line]
        payload = json.loads((base / "metrics.json").read_text())
    except (OSError, ValueError) as err:
        return None, None, [], [f"unreadable artifacts: {err}"]
    problems = workloads.expected_records(workload, records)
    bad = [r["index"] for r in records if not workloads.feasible(workload, r)]
    if bad:
        problems.append(f"{len(bad)} records with infeasible lambda "
                        f"(first at hyper-iteration {bad[0]})")
    seconds = [r["seconds"] for r in records]
    return (payload["digest"], workloads.quality(workload, payload["metrics"]),
            seconds, problems)


def check_quality(workload, seed, quality):
    if seed != workloads.DEFAULT_SEED:
        return []
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    problems = []
    for key, want in reference.items():
        tol = workloads.QUALITY_TOLERANCE[key]
        if abs(quality[key] - want) > tol:
            problems.append(f"quality {key} = {quality[key]} is more than "
                            f"{tol} from the reference {want}")
    return problems


def source_digest(root):
    """Hash of the package sources: identifies the code being measured."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "hypergrad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestLedger:
    """Digests seen per (source tree, workload, seed), kept across runs."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.seen = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.seen = {}

    def check(self, key, digest):
        first = self.seen.setdefault(key, digest)
        if first != digest:
            return [f"digest {digest[:12]} differs from {first[:12]} "
                    f"seen earlier for the same code and seed"]
        return []

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        tmp.replace(self.path)


def oracle_check(workload, seed):
    """Largest relative gap between the two engines, and the problems found."""
    from hypergrad import forward_hg, reverse_hg
    from hypergrad.verify import gap

    dyn, e_val, s0, lams, n_steps = workloads.oracle_problem(workload, seed)
    worst, problems = 0.0, []
    for lam in lams:
        fwd = forward_hg(dyn, e_val, s0, lam, n_steps)
        rev = reverse_hg(dyn, e_val, s0, lam, n_steps)
        rel = gap(fwd.gradient, rev.gradient)
        worst = max(worst, rel)
        if not rel <= ORACLE_REL_GAP:
            problems.append(f"forward/reverse relative gap {rel:.3e} at "
                            f"lambda = {lam[:4]} exceeds {ORACLE_REL_GAP:.0e}")
    return worst, problems


def _tiny_instances():
    """(label, dyn, E, s0, lam) with m = 3 weights (GD) and m = 2 (GDM)."""
    import numpy as np

    from hypergrad import (DatasetValidation, GradientDescent,
                           MinibatchSchedule, Momentum, VectorLayout,
                           WeightedSoftmax)
    from hypergrad.datasets import blob_task

    train, val, _ = blob_task(7, 3, 8, 1, n_classes=2, n_features=4)
    layout = VectorLayout([("weights", 3)])
    obj = WeightedSoftmax(train, hyper_layout=layout, weight_segment="weights")
    gd = GradientDescent(obj, eta=0.3)
    yield ("GD m=3", gd, DatasetValidation(val),
           gd.init_state(np.zeros(obj.n_params)), np.full(3, 0.7))

    train, val, _ = blob_task(8, 6, 8, 1, n_classes=3, n_features=4)
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    obj = WeightedSoftmax(train, hyper_layout=layout, weight_segment=None,
                          schedule=MinibatchSchedule(n=6, batch_size=2, seed=1))
    gdm = Momentum(obj, eta="eta", mu="mu")
    yield ("GDM m=2", gdm, DatasetValidation(val),
           gdm.init_state(np.zeros(obj.n_params)), np.array([0.2, 0.5]))


def self_test():
    """Traced counts on tiny instances must equal the closed forms."""
    from hypergrad import engines

    from layertrace import Tracer

    T = 5
    problems = []
    for label, dyn, e_val, s0, lam in _tiny_instances():
        m = len(lam)
        with Tracer() as tracer:
            engines.forward_hg(dyn, e_val, s0, lam, T)
        fwd = tracer.metrics()
        with Tracer() as tracer:
            result = engines.reverse_hg(dyn, e_val, s0, lam, T)
        rev = tracer.metrics()
        expected = [
            ("forward jvp_state calls", fwd["dynamics.jvp_state.calls"], T * m),
            ("forward step calls", fwd["dynamics.step.calls"], T),
            ("forward engine calls", fwd["engines.forward_hg.calls"], 1),
            ("reverse vjp_hyper calls", rev["dynamics.vjp_hyper.calls"], T),
            ("reverse vjp_state calls", rev["dynamics.vjp_state.calls"], T - 1),
            ("reverse step calls", rev["dynamics.step.calls"], T),
            ("reverse jvp_state calls", rev["dynamics.jvp_state.calls"], 0),
            ("tape states", len(result.tape), T + 1),
            ("tape bytes", rev["engines.tape_bytes_max"],
             (T + 1) * dyn.n_state * 8),
        ]
        problems += [f"self-test {label}: {what} = {got}, closed form {want}"
                     for what, got, want in expected if got != want]
    if hasattr(engines.reverse_hg, "__wrapped__"):
        problems.append("self-test: tracer left a wrapper installed")
    return problems
