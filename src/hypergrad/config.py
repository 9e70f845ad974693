"""Experiment configuration: a flat ``key = value`` file format.

One dataclass covers every experiment kind; unused fields keep their
defaults. The file format is a line-oriented ``key = value`` list with
``#`` comments — no sections, no nesting — so configs stay diffable and
greppable. Every run artifact embeds the full resolved config.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError

# data-file keys no experiment reads, and the IDX keys only clean reads
_UNREAD_FILE_KEYS = ("val_images", "val_labels", "train_csv", "val_csv",
                     "test_csv")
_IDX_FILE_KEYS = ("train_images", "train_labels", "test_images",
                  "test_labels")


@dataclass
class ExperimentConfig:
    experiment: str = ""
    seed: int = 0
    n_seeds: int = 5
    out_dir: str = "runs"
    engine: str = "reverse"

    # IDX data files, read by clean only; synthetic generation when absent.
    # The val_* and *_csv keys are read by no experiment: validate()
    # rejects them (they stay fields because every digest hashes the
    # full config).
    train_images: str | None = None
    train_labels: str | None = None
    val_images: str | None = None
    val_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train_csv: str | None = None
    val_csv: str | None = None
    test_csv: str | None = None

    # synthetic task shape
    n_train: int = 200
    n_val: int = 200
    n_test: int = 400
    n_classes: int = 2
    n_features: int = 2
    n_clusters: int = 2

    # inner problem
    inner_steps: int = 200
    inner_lr: float = 0.1
    batch_size: int | None = None
    corruption: float = 0.5

    # outer problem
    radius: float = 100.0
    hyper_iters: int = 300
    hyper_lr: float = 0.005
    delta: int = 50
    val_subset: int | None = None

    # baselines / bench
    budget: int = 20
    bench_m: str = "1,10,25,50,100"
    bench_steps: str = "100,500,1000,2000"

    def int_list(self, name):
        raw = getattr(self, name)
        try:
            return [int(tok) for tok in str(raw).split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigError(f"{name}: expected comma-separated ints, "
                              f"got {raw!r}") from err

    def validate(self):
        if self.experiment not in ("clean", "mtl", "rtho", "bench",
                                   "randsearch", "check"):
            raise ConfigError(f"unknown experiment kind {self.experiment!r}")
        if self.engine not in ("forward", "reverse"):
            raise ConfigError(f"engine must be forward or reverse, "
                              f"got {self.engine!r}")
        positives = ["inner_steps", "hyper_iters", "delta", "n_train",
                     "n_val", "n_test", "n_classes", "n_features",
                     "n_clusters", "budget", "n_seeds"]
        if self.val_subset is not None:
            positives.append("val_subset")
        for name in positives:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("bench_m", "bench_steps"):
            if min(self.int_list(name), default=1) < 1:
                raise ConfigError(f"{name} entries must be >= 1, "
                                  f"got {getattr(self, name)!r}")
        if self.experiment in ("clean", "mtl") and self.n_classes < 2:
            raise ConfigError(f"{self.experiment} needs n_classes >= 2, got "
                              f"{self.n_classes}")
        if not 0.0 <= self.corruption <= 1.0:
            raise ConfigError(f"corruption must lie in [0, 1], "
                              f"got {self.corruption}")
        for name in ("radius", "inner_lr", "hyper_lr"):  # NaN fails too
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        self._validate_data_files()
        return self

    def _validate_data_files(self):
        """Reject every data-file key the experiment would not read."""
        for name in _UNREAD_FILE_KEYS:
            if getattr(self, name) is not None:
                raise ConfigError(f"{name} is read by no experiment; only "
                                  f"clean reads data, from train_images/"
                                  f"train_labels and test_images/test_labels")
        given = [name for name in _IDX_FILE_KEYS
                 if getattr(self, name) is not None]
        if given and self.experiment != "clean":
            raise ConfigError(f"{given[0]} is read only by clean; "
                              f"{self.experiment} runs on synthetic data")
        for split in ("train", "test"):
            if ((getattr(self, f"{split}_images") is None)
                    != (getattr(self, f"{split}_labels") is None)):
                raise ConfigError(f"{split}_images and {split}_labels must "
                                  f"be given together")
        if self.test_images is not None and self.train_images is None:
            raise ConfigError("test_images is read only together with "
                              "train_images; without them clean runs on "
                              "synthetic data")


def _field_types():
    return typing.get_type_hints(ExperimentConfig)


def _coerce(name, text, hint):
    origin = typing.get_origin(hint)
    # typing.Optional and the X | None spelling are distinct origins
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if text.lower() in ("none", "null", ""):
            return None
        hint = args[0]
    try:
        if hint is int:
            return int(text)
        if hint is float:
            return float(text)
        if hint is bool:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return text
    except ValueError as err:
        raise ConfigError(f"config key {name}: cannot parse {text!r} "
                          f"as {hint.__name__}") from err


def parse_config(path) -> ExperimentConfig:
    """Read a flat key=value file into an ExperimentConfig."""
    hints = _field_types()
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip(), hints[key])
    return ExperimentConfig(**values)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def write_config(path, cfg: ExperimentConfig):
    Path(path).write_text(config_to_text(cfg))


def config_as_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)
