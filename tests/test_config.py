"""Flat key = value experiment configs."""

import pytest

from hypergrad.config import (ExperimentConfig, config_as_dict,
                              config_to_text, parse_config)
from hypergrad.errors import ConfigError


def test_round_trip_through_file(tmp_path):
    cfg = ExperimentConfig(experiment="clean", seed=3, n_train=123,
                           inner_lr=0.025, batch_size=16, out_dir="elsewhere")
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(cfg))
    back = parse_config(path)
    assert back == cfg


def test_parse_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("""
# a comment
experiment = rtho   # trailing comment
seed = 4

delta = 25
""")
    cfg = parse_config(path)
    assert cfg.experiment == "rtho"
    assert cfg.seed == 4 and cfg.delta == 25


def test_parse_unknown_key_reports_line_number(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = clean\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:2.*lerning_rate"):
        parse_config(path)


def test_parse_rejects_a_repeated_key(tmp_path):
    # the file names the key and both of its lines; nothing is kept
    path = tmp_path / "c.cfg"
    path.write_text("experiment = clean\nhyper_iters = 2\n# note\n"
                    "hyper_iters = 3\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:4: config key "
                       r"'hyper_iters' repeated \(lines 2 and 4\)"):
        parse_config(path)


def test_parse_missing_equals_reports_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment clean\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1"):
        parse_config(path)


def test_parse_bad_value_type(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = soon\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path)


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/nowhere.cfg")


def test_optional_fields_accept_none_and_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("batch_size = none\nval_subset = 50\n")
    cfg = parse_config(path)
    assert cfg.batch_size is None
    assert cfg.val_subset == 50


def test_float_values_round_trip(tmp_path):
    # a float survives the text round trip exactly
    cfg = ExperimentConfig(experiment="bench", hyper_lr=0.00125)
    path = tmp_path / "c.cfg"
    path.write_text(config_to_text(cfg))
    assert parse_config(path).hyper_lr == 0.00125


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="dream").validate()


def test_validate_rejects_bad_engine():
    with pytest.raises(ConfigError, match="engine"):
        ExperimentConfig(experiment="clean", engine="central").validate()


def test_validate_rejects_nonpositive_counts():
    with pytest.raises(ConfigError, match="inner_steps"):
        ExperimentConfig(experiment="clean", inner_steps=0).validate()


def test_validate_rejects_out_of_range_corruption():
    with pytest.raises(ConfigError, match="corruption"):
        ExperimentConfig(experiment="clean", corruption=1.5).validate()


def test_validate_requires_paired_idx_paths():
    with pytest.raises(ConfigError, match="together"):
        ExperimentConfig(experiment="clean",
                         train_images="imgs.idx").validate()


def test_validate_returns_self_for_chaining():
    cfg = ExperimentConfig(experiment="bench")
    assert cfg.validate() is cfg


def test_int_list_parsing():
    cfg = ExperimentConfig(bench_m="1, 10,25")
    assert cfg.int_list("bench_m") == [1, 10, 25]
    cfg = ExperimentConfig(bench_m="1,ten")
    with pytest.raises(ConfigError, match="bench_m"):
        cfg.int_list("bench_m")


def test_config_as_dict_is_plain():
    d = config_as_dict(ExperimentConfig(experiment="clean"))
    assert d["experiment"] == "clean"
    assert d["n_train"] == 200


def test_config_to_text_skips_none_fields():
    text = config_to_text(ExperimentConfig(experiment="clean"))
    assert "batch_size" not in text
    assert "experiment = clean" in text
