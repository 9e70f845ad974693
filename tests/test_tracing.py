"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` wraps the callables in its ``TARGETS`` by
name, and ``perfbench/gates.py`` checks the traced counts against the
paper's closed forms. Both are loaded here as they are, so a traced
name that is deleted or moved fails this suite instead of a traced
benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("layertrace"),
            importlib.import_module("gates"))


def test_every_traced_name_resolves(perfbench):
    layertrace, _ = perfbench
    missing = []
    for mod_name, attr, _ in layertrace.TARGETS:
        module = importlib.import_module(f"{layertrace.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            # the tracer wraps a method in the class's own body
            if cls is None or meth not in vars(cls):
                missing.append(f"{mod_name}.{attr}")
        elif not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_tracer_self_test_passes(perfbench):
    _, gates = perfbench
    assert gates.self_test() == []


def test_a_seed_block_stream_counts_one_call_per_column(perfbench):
    # a block call counts once whatever its rows: two seeds streamed as
    # one block make T * m state-JVP calls, as one seed alone does, and
    # the self-test's closed forms still hold
    layertrace, gates = perfbench
    from hypergrad import (Dataset, DatasetValidation, MaxHyperIters,
                           MinibatchSchedule, Momentum, SeedStack,
                           VectorLayout, WeightedSoftmax, driver)

    rng = np.random.default_rng(3)
    stack = SeedStack(rng.standard_normal((2, 6, 4)),
                      np.tile([0, 1, 2], (2, 2)), 3)
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    dyn = Momentum(WeightedSoftmax(
        stack, hyper_layout=layout, weight_segment=None,
        schedule=[MinibatchSchedule(n=6, batch_size=2, seed=s)
                  for s in (1, 2)]))
    val = [DatasetValidation(Dataset(rng.standard_normal((5, 4)),
                                     np.array([0, 1, 2, 0, 1])))
           for _ in range(2)]
    s0 = np.zeros((2, dyn.n_state))
    lam0 = np.array([[0.2, 0.5], [0.1, 0.3]])
    delta, emissions = 3, 4
    with layertrace.Tracer() as tracer:
        runs = driver.stream_ho_loop(dyn, val, s0, lam0, None, delta,
                                     MaxHyperIters(emissions))
    counts = tracer.metrics()
    T, m = delta * emissions, len(layout.names)
    assert [len(records) for _, records in runs] == [emissions] * 2
    assert counts["dynamics.jvp_state.calls"] == T * m
    assert counts["dynamics.jvp_hyper.calls"] == T * m  # eta and mu
    assert counts["dynamics.step.calls"] == T
    assert counts["engines.rtho_stream.calls"] == emissions
    assert gates.self_test() == []


def test_a_seed_block_tape_counts_one_sweep_per_hyper_iteration(perfbench):
    # two seeds' mtl problems as one lockstep block: each hyper-iteration
    # is one reverse_hg call whose T vjp_hyper and T - 1 vjp_state calls
    # cover both rows
    layertrace, gates = perfbench
    from hypergrad import (DatasetValidation, GradientDescent, MaxHyperIters,
                           MultitaskLinear, SeedStack, VectorLayout, driver)
    from hypergrad.datasets import clustered_task_data

    k, seeds = 3, (0, 1)
    splits = [clustered_task_data(seed, k, 2, 5, 3, 3, 0) for seed in seeds]
    stack = SeedStack(np.stack([train.features for train, *_ in splits]),
                      np.stack([train.labels for train, *_ in splits]), k)
    layout = VectorLayout([("coupling", k * k), ("rho", k)])
    dyn = GradientDescent(MultitaskLinear(stack, hyper_layout=layout,
                                          per_task_rho=True), eta=0.05)
    val = [DatasetValidation(split[1]) for split in splits]
    lam0 = layout.pack(coupling=np.zeros(k * k), rho=np.full(k, 0.1))
    T, iters = 4, 3
    with layertrace.Tracer() as tracer:
        paths, counts = driver.lockstep_ho_loop(
            dyn, val, np.zeros((2, dyn.n_state)),
            [(lam0, None, MaxHyperIters(iters), row) for row in (0, 1)], T)
    metrics = tracer.metrics()
    assert counts == [iters, iters]
    assert [len(records) for _, records in paths] == [iters, iters]
    assert metrics["engines.reverse_hg.calls"] == iters
    assert metrics["engines.record_trajectory.calls"] == iters
    assert metrics["dynamics.vjp_hyper.calls"] == iters * T
    assert metrics["dynamics.vjp_state.calls"] == iters * (T - 1)
    assert metrics["dynamics.step.calls"] == iters * T
    # the block's tape holds both rows' states
    assert metrics["engines.tape_bytes_max"] == (T + 1) * 2 * dyn.n_state * 8
    # lockstep_ho_loop is not among the tracer's targets (yet)
    assert metrics["driver.loop.calls"] == 0
    assert gates.self_test() == []
