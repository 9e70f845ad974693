"""End-to-end command-line runs on deliberately tiny problems."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypergrad
from conftest import read_jsonl, write_idx
from hypergrad.cli import build_parser, main, resolve_config
from hypergrad.errors import ConfigError
from hypergrad.numerics import make_rng


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


TINY_CLEAN = """
experiment = clean
seed = 0
n_train = 24
n_val = 24
n_test = 40
corruption = 0.5
inner_steps = 30
inner_lr = 0.1
radius = 12.0
hyper_iters = 8
hyper_lr = 0.05
"""

TINY_MTL = """
experiment = mtl
seed = 0
n_seeds = 2
n_classes = 4
n_clusters = 2
n_features = 8
n_train = 16
n_val = 16
n_test = 40
inner_steps = 25
inner_lr = 0.01
radius = 2.0
hyper_iters = 4
hyper_lr = 0.05
"""

TINY_RTHO = """
experiment = rtho
seed = 0
n_seeds = 1
n_classes = 3
n_features = 6
n_train = 60
n_val = 30
n_test = 30
batch_size = 10
inner_steps = 20
delta = 10
hyper_iters = 6
hyper_lr = 0.01
"""

TINY_BENCH = """
experiment = bench
seed = 0
bench_m = 1,3
bench_steps = 5,10
"""


NO_SUCH_IDX = "train_images = /nonexistent\ntrain_labels = /nonexistent\n"


def _set(text, key, value):
    """``text`` with ``key`` set to ``value``: a key may appear once."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_resolve_config_flag_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path, "experiment = clean\nseed = 3\n")
    args = build_parser().parse_args(
        ["clean", "--config", cfg_path, "--seed", "9", "--hyper-iters", "2"])
    cfg = resolve_config(args)
    assert cfg.seed == 9           # flag wins over file
    assert cfg.hyper_iters == 2
    assert cfg.experiment == "clean"


@pytest.mark.parametrize("command, text, want", [
    ("clean", "seed = 3\n", "clean"),          # no experiment key: valid
    ("check", TINY_MTL, "check"),             # check reads only the seed
    ("check", "experiment = bogus\n", "check"),
    ("mtl", TINY_MTL, "mtl"),
    ("randsearch", TINY_RTHO, "randsearch"),  # randsearch runs rtho's task
    # each optional key on the experiments that read it, and on check
    ("check", TINY_CLEAN + NO_SUCH_IDX, "check"),
    ("check", _set(TINY_RTHO, "val_subset", 10), "check"),
    ("clean", _set(TINY_CLEAN, "batch_size", 8), "clean"),
    ("rtho", _set(TINY_RTHO, "val_subset", 10), "rtho"),
    ("randsearch", _set(TINY_RTHO, "val_subset", 10), "randsearch"),
])
def test_resolve_config_takes_a_file_of_its_experiment(tmp_path, command,
                                                       text, want):
    args = build_parser().parse_args(
        [command, "--config", write_cfg(tmp_path, text)])
    assert resolve_config(args).validate().experiment == want


def test_resolve_config_rejects_a_file_of_another_experiment(tmp_path):
    args = build_parser().parse_args(
        ["rtho", "--config", write_cfg(tmp_path, TINY_MTL)])
    with pytest.raises(ConfigError, match="experiment = mtl, but the "
                       "subcommand is rtho"):
        resolve_config(args)


def test_clean_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_CLEAN)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(["clean", "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert code == 0, err
    assert "F1=" in out
    base = out_dir / "clean"
    assert (base / "config.txt").exists()
    assert (base / "metrics.json").exists()
    records = read_jsonl(base / "records.jsonl")
    assert len(records) == 8
    metrics = json.loads((base / "metrics.json").read_text())["metrics"]
    for key in ("f1", "test_accuracy", "baseline_accuracy", "oracle_accuracy"):
        assert key in metrics


def test_mtl_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MTL)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(["mtl", "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert code == 0, err
    assert "margin=" in out
    metrics = json.loads(
        (out_dir / "mtl" / "metrics.json").read_text())["metrics"]
    for name in ("stl", "nmtl", "hmtl", "hmtl_s"):
        assert len(metrics[name]["per_seed"]) == 2


def test_rtho_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_RTHO)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(["rtho", "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert code == 0, err
    assert "val_acc=" in out
    base = out_dir / "rtho"
    assert (base / "stream.csv").exists()
    metrics = json.loads((base / "metrics.json").read_text())["metrics"]
    assert "final_eta" in metrics and "final_mu" in metrics


def test_bench_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_BENCH)
    code, out, err = run_cli(["bench", "--config", cfg, "--out",
                              str(tmp_path / "runs")], capsys)
    assert code == 0, err
    timings = json.loads(
        (tmp_path / "runs" / "bench" / "metrics.json").read_text())["timings"]
    assert any(key.startswith("forward") for key in timings)


def test_randsearch_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
experiment = randsearch
seed = 0
n_classes = 3
n_features = 6
n_train = 60
n_val = 30
n_test = 30
batch_size = 10
inner_steps = 15
budget = 4
""")
    code, out, err = run_cli(["randsearch", "--config", cfg, "--out",
                              str(tmp_path / "runs")], capsys)
    assert code == 0, err
    assert "best score=" in out


def test_check_subcommand_reports_per_check_lines(capsys):
    code, out, err = run_cli(["check"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) > 300          # the full verification battery
    assert all(ln.startswith("PASS") for ln in lines)
    assert "checks passed" in out


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = clean\ninner_steps = 0\n")
    code, out, err = run_cli(["clean", "--config", cfg], capsys)
    assert code == 2
    assert "config error" in err


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = clean\nbogus = 1\n")
    code, out, err = run_cli(["clean", "--config", cfg], capsys)
    assert code == 2
    assert "bogus" in err


def test_missing_config_file_exit_code(capsys):
    code, out, err = run_cli(["clean", "--config", "/no/such/file.cfg"],
                             capsys)
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_exit_code(tmp_path, capsys):
    # the ridge term keeps the inner map expansive at absurd rates, so
    # the weights overflow and the step-level finiteness check trips
    cfg = write_cfg(tmp_path, TINY_MTL.replace("inner_lr = 0.01",
                                               "inner_lr = 1e15"))
    code, out, err = run_cli(["mtl", "--config", cfg, "--out",
                              str(tmp_path / "runs")], capsys)
    assert code == 3
    assert "numerical divergence" in err


def test_cli_rerun_reproduces_digest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_RTHO)
    digests = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run_cli(["rtho", "--config", cfg, "--out", str(out_dir)],
                             capsys)
        assert code == 0
        payload = json.loads((out_dir / "rtho" / "metrics.json").read_text())
        digests.append(payload["digest"])
    assert digests[0] == digests[1]


def _write_garbage_idx(tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"not an idx file")
    return (f"experiment = clean\ntrain_images = {bad}\n"
            f"train_labels = {bad}\n")


def _idx_pair(tmp_path, split, n):
    """Paths of a tiny IDX image/label pair for ``split``."""
    rng = make_rng(0, 0x1D)
    images, labels = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
    write_idx(images, rng.integers(0, 256, size=(n, 2, 2)))
    write_idx(labels, rng.integers(0, 2, size=n))
    return images, labels


def _test_images_of_another_size(tmp_path):
    train_images, train_labels = _idx_pair(tmp_path, "train", 60)
    test_images, test_labels = tmp_path / "big-images", tmp_path / "big-labels"
    rng = make_rng(0, 0x1E)
    write_idx(test_images, rng.integers(0, 256, size=(10, 3, 3)))
    write_idx(test_labels, rng.integers(0, 2, size=10))
    return (TINY_CLEAN + f"train_images = {train_images}\n"
            f"train_labels = {train_labels}\ntest_images = {test_images}\n"
            f"test_labels = {test_labels}\n")


def _test_labels_of(tmp_path, test_labels):
    """Config whose IDX test set carries the labels ``test_labels``."""
    train_images, train_labels = _idx_pair(tmp_path, "train", 60)
    test_images, labels = tmp_path / "odd-images", tmp_path / "odd-labels"
    rng = make_rng(0, 0x1F)
    write_idx(test_images, rng.integers(0, 256, size=(len(test_labels), 2, 2)))
    write_idx(labels, test_labels)
    return (TINY_CLEAN + f"train_images = {train_images}\n"
            f"train_labels = {train_labels}\ntest_images = {test_images}\n"
            f"test_labels = {labels}\n")


def _pool_of(tmp_path, n_images, n_train, n_val):
    """Clean config splitting an IDX pool of ``n_images`` with no test files."""
    images, labels = _idx_pair(tmp_path, "train", n_images)
    return (TINY_CLEAN.replace("n_train = 24", f"n_train = {n_train}")
            .replace("n_val = 24", f"n_val = {n_val}")
            + f"train_images = {images}\ntrain_labels = {labels}\n")


def _single_class_pool(tmp_path, label):
    """Clean config on an IDX pool whose labels are all ``label``."""
    images, labels = tmp_path / "one-images", tmp_path / "one-labels"
    write_idx(images, make_rng(0, 0x20).integers(0, 256, size=(60, 2, 2)))
    write_idx(labels, np.full(60, label))
    return TINY_CLEAN + f"train_images = {images}\ntrain_labels = {labels}\n"


def _empty_images(tmp_path, dims):
    """Clean config on an IDX image stack of ``dims`` with its labels."""
    images, labels = tmp_path / "empty-images", tmp_path / "empty-labels"
    write_idx(images, np.zeros(dims, dtype=np.uint8))
    write_idx(labels, np.arange(dims[0]) % 2)
    return TINY_CLEAN + f"train_images = {images}\ntrain_labels = {labels}\n"


def _test_images_without_labels(tmp_path):
    train_images, train_labels = _idx_pair(tmp_path, "train", 60)
    test_images, _ = _idx_pair(tmp_path, "test", 10)
    return (TINY_CLEAN + f"train_images = {train_images}\n"
            f"train_labels = {train_labels}\ntest_images = {test_images}\n")


def _fail_one_check(monkeypatch):
    from hypergrad import cli
    from hypergrad.verify import CheckResult
    monkeypatch.setattr(cli, "run_check_suite",
                        lambda seed: [CheckResult("always fails", False)])


def _reject_every_lambda(monkeypatch):
    from hypergrad.outer import Constraints
    monkeypatch.setattr(Constraints, "contains", lambda self, lam: False)


def _mismatch_shapes(monkeypatch):
    from hypergrad import cli
    from hypergrad.errors import DimensionMismatchError

    def runner(cfg):
        raise DimensionMismatchError("vector has length 3, layout expects 4")

    monkeypatch.setitem(cli._RUNNERS, "clean", runner)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("command, cfg_text, patch, code, stderr_tag", [
    ("clean", lambda tmp: TINY_CLEAN, None, 0, ""),
    ("check", None, _fail_one_check, 1, ""),
    ("clean", lambda tmp: "experiment = clean\ninner_steps = 0\n", None, 2,
     "config error"),
    ("mtl", lambda tmp: TINY_MTL.replace("inner_lr = 0.01", "inner_lr = 1e15"),
     None, 3, "numerical divergence"),
    ("clean", _write_garbage_idx, None, 4, "I/O error"),
    ("clean", _test_images_of_another_size, None, 4,
     "images of 9 pixels, training images have 4"),
    # a test set may lack a training class but not add one
    ("clean", lambda tmp: _test_labels_of(tmp, [0] * 10), None, 0, ""),
    ("clean", lambda tmp: _test_labels_of(tmp, [0, 1, 2] * 3), None, 4,
     "class 2 is not among the training classes 0..1"),
    # the pool must hold the training and validation splits, plus a
    # test split when no test files are given
    ("clean", lambda tmp: _pool_of(tmp, 30, 20, 20), None, 4,
     "30 images, the splits need 41"),
    ("clean", lambda tmp: _pool_of(tmp, 40, 20, 20), None, 4,
     "40 images, the splits need 41"),
    # one class leaves nothing to clean: the data file is at fault
    *[("clean", lambda tmp, label=label: _single_class_pool(tmp, label), None,
       4, f"every label is class {label}") for label in (0, 1)],
    # an image file of no images, or of images of no pixels
    *[("clean", lambda tmp, dims=dims: _empty_images(tmp, dims), None, 4,
       f"empty-images: empty image stack, dims {dims}")
      for dims in ((0, 2, 2), (60, 0, 4))],
    *[(command, lambda tmp, text=text: text, _reject_every_lambda, 5,
       "infeasible hyperparameters")
      for command, text in (("clean", TINY_CLEAN), ("rtho", TINY_RTHO))],
    # a shape mismatch inside a run is a fault of the program
    ("clean", lambda tmp: TINY_CLEAN, _mismatch_shapes, 6,
     "internal error: vector has length 3"),
    # data files no run would read, and shapes no run can use, fail
    # before the run with a config error naming the key
    *[("clean", lambda tmp, key=key: TINY_CLEAN + f"{key} = /nonexistent\n",
       None, 2, f"config error: {key}")
      for key in ("val_images", "val_labels", "train_csv", "val_csv",
                  "test_csv")],
    *[(command, lambda tmp, text=text: text + NO_SUCH_IDX, None, 2,
       "config error: train_images")
      for command, text in (("mtl", TINY_MTL), ("rtho", TINY_RTHO),
                            ("bench", TINY_BENCH))],
    ("clean", _test_images_without_labels, None, 2,
     "config error: test_images and test_labels"),
    ("clean", lambda tmp: TINY_CLEAN + "n_features = 0\n", None, 2,
     "config error: n_features"),
    ("mtl", lambda tmp: TINY_MTL.replace("n_clusters = 2", "n_clusters = 0"),
     None, 2, "config error: n_clusters"),
    *[(command, lambda tmp, text=text: _set(text, "n_classes", 1), None, 2,
       f"config error: {command} needs n_classes >= 2")
      for command, text in (("clean", TINY_CLEAN), ("mtl", TINY_MTL))],
    ("rtho", lambda tmp: TINY_RTHO + "val_subset = 0\n", None, 2,
     "config error: val_subset"),
    ("check", lambda tmp: "val_images = /nonexistent\n", None, 2,
     "config error: val_images"),
    # a key given twice, and a file for another experiment
    ("clean", lambda tmp: TINY_CLEAN + "inner_steps = 3\n", None, 2,
     "config key 'inner_steps' repeated"),
    ("clean", lambda tmp: TINY_MTL, None, 2,
     "experiment = mtl, but the subcommand is clean"),
    # a non-finite float or a bench size below 1 fails by its key name
    *[(command, lambda tmp, text=text, key=key, value=value:
       _set(text, key, value), None, 2, f"config error: {key}")
      for command, text, key, value in (
          ("clean", TINY_CLEAN, "inner_lr", "nan"),
          ("clean", TINY_CLEAN, "radius", "nan"),
          ("rtho", TINY_RTHO, "hyper_lr", "inf"),
          ("bench", TINY_BENCH, "bench_m", "0"),
          ("bench", TINY_BENCH, "bench_steps", "5,0"))],
    # an optional key the experiment never reads fails by its name
    *[(command, lambda tmp, text=text, key=key: _set(text, key, 8), None, 2,
       f"config error: {key} is read only by")
      for command, text, key in (("mtl", TINY_MTL, "batch_size"),
                                 ("bench", TINY_BENCH, "batch_size"),
                                 ("clean", TINY_CLEAN, "val_subset"),
                                 ("mtl", TINY_MTL, "val_subset"),
                                 ("bench", TINY_BENCH, "val_subset"))],
], ids=["ok", "failed-checks", "config", "divergence", "ingest",
        "test-image-size", "test-lacks-a-class", "test-new-class",
        "pool-too-small", "pool-leaves-no-test", "single-class-0",
        "single-class-1", "no-images", "no-pixels", "infeasible",
        "rtho-infeasible", "internal",
        "val_images", "val_labels", "train_csv", "val_csv", "test_csv",
        "mtl-train_images", "rtho-train_images", "bench-train_images",
        "test_images-without-labels", "n_features", "n_clusters",
        "clean-n_classes", "mtl-n_classes", "val_subset", "check-val_images",
        "repeated-key", "other-experiment",
        "inner_lr-nan", "radius-nan", "hyper_lr-inf", "bench_m-0", "bench_steps-0",
        "mtl-batch_size", "bench-batch_size", "clean-val_subset",
        "mtl-val_subset", "bench-val_subset"])
def test_exit_code_contract(tmp_path, capsys, monkeypatch, command, cfg_text,
                            patch, code, stderr_tag):
    if patch is not None:
        patch(monkeypatch)
    argv = [command, "--out", str(tmp_path / "runs")]
    if cfg_text is not None:
        argv += ["--config", write_cfg(tmp_path, cfg_text(tmp_path))]
    got, out, err = run_cli(argv, capsys)
    assert got == code, err
    assert stderr_tag in err


def test_divergence_exits_3_when_warnings_are_errors(tmp_path):
    # numpy's overflow warnings stay silent inside the engines, so a run
    # under -W error still reports the divergence, and nothing before it
    cfg = write_cfg(tmp_path, TINY_MTL.replace("inner_lr = 0.01",
                                               "inner_lr = 1e15"))
    src = str(Path(hypergrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-m", "hypergrad.cli", "mtl",
         "--config", cfg, "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical divergence"), proc.stderr


def test_an_adam_overflow_exits_3_when_warnings_are_errors(tmp_path):
    # at inner_lr = 1e8 the states stay finite, but a hypergradient entry
    # squares past the largest float in Adam's second moment: that is a
    # divergence (exit 3) naming the seed whose update failed, not an
    # uncaught RuntimeWarning (exit 1)
    cfg = write_cfg(tmp_path, TINY_MTL.replace("inner_lr = 0.01",
                                               "inner_lr = 1e8"))
    src = str(Path(hypergrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-m", "hypergrad.cli", "mtl",
         "--config", cfg, "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical divergence"), proc.stderr
    assert "Adam second moment" in proc.stderr
    assert re.search(r"numerical divergence: seed \d+", proc.stderr), proc.stderr


@pytest.mark.parametrize("flag, value", [("--hyper-lr", "inf"),
                                         ("--radius", "nan")])
def test_a_non_finite_flag_is_a_config_error(tmp_path, capsys, flag, value):
    argv = ["rtho", "--config", write_cfg(tmp_path, TINY_RTHO), "--out",
            str(tmp_path / "runs"), flag, value]
    got, _, err = run_cli(argv, capsys)
    assert got == 2
    assert f"config error: {flag[2:].replace('-', '_')} must be positive and finite" in err
