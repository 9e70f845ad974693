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
