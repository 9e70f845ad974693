"""Print the eight experiment digests and the check digest of a source tree.

    python3 tools/digests.py [TREE]

TREE (by default the tree that holds this script) must hold
``src/hypergrad``, ``configs/`` and ``perfbench/workloads.py``. The
script runs the four canonical configs ``configs/*.cfg`` and the
benchmark's three workloads at seed 0, each through the tree's own
``hypergrad`` command line in a fresh interpreter, and prints one
``name digest`` line per run. ``mtl-2seed-forward`` runs the
``mtl-2seed`` workload with ``--engine forward``, so the multitask
objective's forward products are hashed too. The last line, ``check``,
is the SHA-256 of what ``hypergrad check --seed 0`` prints (the oracle
battery: each check's verdict and its gap, rounded). A change that
leaves the arithmetic alone leaves all nine lines as they were, so
comparing the output on two trees is the bit-identity check.

Nothing is written into TREE: the run outputs go to a temporary
directory, no interpreter writes a bytecode cache, and the workloads
module is only read.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("clean", "mtl", "rtho", "bench")
SEED = 0
# (name, workload, extra CLI flags) of each run beyond the workloads as
# the benchmark runs them
VARIANTS = (("mtl-2seed-forward", "mtl-2seed", ("--engine", "forward")),)


def _workloads(tree):
    """The tree's ``perfbench/workloads.py``, imported without a cache."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "perfbench"))
    return importlib.import_module("workloads").WORKLOADS


def _run(tree, name, argv):
    """Run ``hypergrad`` with ``argv`` on the tree's sources; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-B", "-m", "hypergrad.cli", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def _digest(tree, name, argv, out_dir):
    """Run ``hypergrad`` with ``argv``; the digest of its report."""
    _run(tree, name, argv)
    metrics = out_dir / argv[0] / "metrics.json"
    return json.loads(metrics.read_text())["digest"]


def main():
    args = sys.argv[1:]
    tree = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        runs, workloads = [], _workloads(tree)
        for name, base, flags in (*((n, n, ()) for n in workloads),
                                  *VARIANTS):
            out = Path(tmp) / name
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text(workloads[base].config_text(SEED))
            runs.append((name, [*workloads[base].cli_argv(cfg, out), *flags],
                         out))
        for command in CONFIGS:
            out = Path(tmp) / command
            runs.append((f"configs/{command}.cfg",
                         [command, "--config",
                          str(tree / "configs" / f"{command}.cfg"),
                          "--out", str(out)], out))
        for name, cli_argv, out in runs:
            print(f"{name} {_digest(tree, name, cli_argv, out)}", flush=True)
    check = _run(tree, "check", ["check", "--seed", str(SEED)])
    print(f"check {hashlib.sha256(check.encode()).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
