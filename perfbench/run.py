"""Benchmark of the ``hypergrad`` command line, one workload per run.

    python3 perfbench/run.py --workload rtho-duel --seed 0 --seconds 30 --trace 0

Runs the workload's CLI call (``cli.main`` with a benchmark-owned
config) in fresh single-process interpreters, one after another, each
followed by a few set-up-only interpreters, for about ``--seconds``: it
does at least two runs, and starts another only while the previous one
would end less than half its length past the window. Every run is
checked (see ``gates.py``).
``--trace 1`` adds one run under the per-layer tracer and reports the
per-layer metrics instead of the end-to-end ones.

Prints the metrics by name with their units, the machine and
environment as a JSON line, and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
the hyper-iterations the configs ask for; a run that exits non-zero or
fails a check counts all of its hyper-iterations as failed, and a
failed workload-level check (oracle, self-test, digest, quality) counts
every one. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_RUNS = 2          # the digest check needs two runs of the same seed
PROBES_PER_RUN = 3    # set-up-only interpreters after each CLI run, so
                      # set-up samples spread over the whole measurement
CHILD_TIMEOUT = 150.0


@dataclass
class Spawn:
    exit: int
    ready: float | None   # monotonic clock at ready, seconds since spawn
    done: float | None    # monotonic clock at end of cli.main, since spawn
    cpu_s: float
    peak_rss_mb: float
    result: dict


@dataclass
class Run:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    seconds: list
    digest: str | None
    quality: dict | None
    layers: dict | None = None
    spans: list | None = None
    problems: list = field(default_factory=list)


def spawn(result_path, cli_argv, opts=()):
    """Start child.py, reap it with its resource usage, read its result."""
    log = result_path.with_suffix(".log")
    started = time.monotonic()
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_path), *opts,
             "--", *cli_argv], cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - started > CHILD_TIMEOUT:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    since = {key: result[key] - started if key in result else None
             for key in ("ready", "done")}
    return Spawn(exit=result.get("exit", proc.returncode), **since,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, result=result)


def run_once(workload, seed, rep_dir, trace=False):
    rep_dir.mkdir(parents=True)
    config = rep_dir / "workload.cfg"
    config.write_text(workload.config_text(seed))
    argv = workload.cli_argv(config, rep_dir / "out")
    sp = spawn(rep_dir / "result.json", argv, ("--trace",) if trace else ())
    if sp.done is None or sp.exit != 0:
        tail = (rep_dir / "result.log").read_text()[-400:]
        return Run(0.0, 0.0, sp.cpu_s, sp.peak_rss_mb, [], None, None,
                   problems=[f"CLI run exited with {sp.exit}: {tail!r}"])
    try:
        digest, quality, seconds, problems = gates.check_run(workload,
                                                             rep_dir / "out")
    except (KeyError, TypeError, ValueError) as err:
        return Run(0.0, 0.0, sp.cpu_s, sp.peak_rss_mb, [], None, None,
                   problems=[f"artifacts do not parse: {err!r}"])
    return Run(sp.ready, sp.done - sp.ready, sp.cpu_s, sp.peak_rss_mb,
               seconds, digest, quality, sp.result.get("layers"),
               sp.result.get("spans"), problems)


def setup_probe(workload, rep_dir, index):
    """Set-up time of an interpreter that stops before calling cli.main."""
    argv = workload.cli_argv(rep_dir / "workload.cfg", rep_dir / "out")
    return spawn(rep_dir / f"probe{index}.json", argv, ("--setup-only",)).ready


# ---------------------------------------------------------------------------
# Machine and environment


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": gates.source_digest(ROOT),
    }


# ---------------------------------------------------------------------------
# Metrics


def latency(runs):
    """Driver-loop iteration latency from the records' ``seconds`` field.

    Not an end-to-end entry of BENCHMARK.json: on a host whose speed
    switches between two states, a pooled percentile jumps from one
    state to the other as the share of time in each crosses it, so its
    spread across seeds is far wider than that of ``wall_s``. It is
    printed with the end-to-end metrics and reported with the layers.
    """
    seconds = [s for run in runs for s in run.seconds]
    return {"hyperiter_p50_ms": 1e3 * statistics.median(seconds),
            "hyperiter_p90_ms": 1e3 * statistics.quantiles(seconds, n=10)[-1]}


def end_to_end(runs, setups):
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }


def per_layer(traced, runs):
    out = dict(traced.layers)
    out["trace.overhead_s"] = (traced.wall_s
                               - statistics.median(r.wall_s for r in runs))
    out.update({f"driver.{k}": v for k, v in latency(runs).items()})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypergrad" / "cli.py").is_file():
        print(f"error: no hypergrad sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    problems = []

    # untimed checks first: they also compile the package's bytecode
    gap, self_test = float("nan"), "not run"
    try:
        gap, found = gates.oracle_check(workload, args.seed)
        problems += found
        if args.trace:
            found = gates.self_test()
            self_test = "failed" if found else "passed"
            problems += found
    except Exception as err:  # a broken program fails the run, not the benchmark
        problems.append(f"untimed check raised {type(err).__name__}: {err}")

    runs, probes = [], []
    began = now = time.monotonic()
    while True:
        rep_dir = work / f"run{len(runs)}"
        runs.append(run_once(workload, args.seed, rep_dir))
        probes += [setup_probe(workload, rep_dir, i)
                   for i in range(PROBES_PER_RUN)]
        last, now = now, time.monotonic()
        # the window is measured to the nearest whole run, so that a run
        # lasts about --seconds however slow one CLI call is
        if (len(runs) >= MIN_RUNS
                and now - began + (now - last) / 2 >= args.seconds):
            break
    measured = now - began
    setups = [r.setup_s for r in runs if not r.problems]
    setups += [p for p in probes if p is not None]
    if None in probes:
        problems.append("a set-up-only interpreter failed")
    traced = (run_once(workload, args.seed, work / "traced", trace=True)
              if args.trace else None)

    checked = runs + ([traced] if traced else [])
    digests = {r.digest for r in checked if r.digest is not None}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different digests across runs of "
                        f"one seed")
    ledger = gates.DigestLedger(WORK / "digests.json")
    key = f"{gates.source_digest(ROOT)}:{workload.name}:{args.seed}"
    for digest in sorted(digests):
        problems += ledger.check(key, digest)
    ledger.save()
    first = next((r for r in checked if r.quality is not None), None)
    if first is not None:
        problems += gates.check_quality(workload, args.seed, first.quality)

    per_run = workloads.configured_records(workload)
    attempted = per_run * len(checked)
    failed = attempted if problems else per_run * sum(
        1 for r in checked if r.problems)
    for i, run in enumerate(checked):
        problems += [f"run {i}: {p}" for p in run.problems]
    good = [r for r in runs if not r.problems]

    values = {}
    if good and (traced is None or not traced.problems):
        values = (per_layer(traced, good) if args.trace
                  else end_to_end(good, setups))
        if args.trace:
            (WORK / f"spans-{workload.name}.json").write_text(
                json.dumps(traced.spans))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = not problems and len(metrics) == len(wanted)

    n_records = sum(len(r.seconds) for r in good)
    printed_only = latency(good) if good and not args.trace else {}
    print(f"workload {workload.name} seed {args.seed}: {len(runs)} CLI runs "
          f"and {len(probes)} set-up probes in {measured:.1f} s, "
          f"{n_records} hyper-iteration records; "
          f"oracle forward/reverse gap {gap:.2e}; tracer self-test "
          f"{self_test}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in printed_only.items():
        print(f"  {name:<40} {value:>14.6g} ms (no bound)")
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} hyper-iterations)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    env = environment()
    print("environment: " + json.dumps(env))
    with open(WORK / "results.jsonl", "a") as history:
        history.write(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "env": env, "metrics": metrics,
            "problems": problems, "setups": setups,
            "calls": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                       "seconds": r.seconds} for r in good]}) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
