"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` wraps the callables in its ``TARGETS`` by
name, and ``perfbench/gates.py`` checks the traced counts against the
paper's closed forms. Both are loaded here as they are, so a traced
name that is deleted or moved fails this suite instead of a traced
benchmark run.
"""

import importlib
from pathlib import Path

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
