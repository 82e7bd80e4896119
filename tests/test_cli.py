import errno
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import astuple, fields
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmtkd
from rmtkd import cli
from rmtkd.cli import (DEFAULT_GRID, _parse_grid, main, validate_config,
                       write_outputs)
from rmtkd.data import Dataset, csv_text, save_csv
from rmtkd.errors import ConfigError
from rmtkd.network import (Checkpoint, init_network, load_checkpoint,
                           save_checkpoint)
from rmtkd.reducer import IterationRecord, check_calibration_rank
from rmtkd.rng import make_rng, normal


def _base_config(out):
    return {
        "task": {"kind": "planted", "input_dim": 16, "intrinsic_dim": 4,
                 "num_classes": 3, "n_samples": 600, "noise_sigma": 0.3},
        "widths": [32],
        "distill": {"max_epochs": 25, "accuracy_threshold": 0.93,
                    "batch_size": 32, "lr": 0.1},
        "plan": {"quantile": 0.7},
        "split": {"calibration_fraction": 0.5},
        "seed": 7,
        "output_dir": str(out),
    }


def _write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------- validation

def test_validate_config_accepts_base(tmp_path):
    cfg = validate_config(_base_config(tmp_path / "o"))
    assert cfg.widths == [32] and cfg.seed == 7
    assert cfg.plan.layer_order == [0]  # defaulted from widths
    assert cfg.plan.quantile == 0.7


def test_validate_config_fills_in_planted_defaults():
    raw = {"task": {"kind": "planted", "input_dim": 16}, "widths": [8],
           "output_dir": "o"}
    cfg = validate_config(raw)
    assert cfg.task == {"kind": "planted", "input_dim": 16, "intrinsic_dim": 8,
                        "num_classes": 10, "n_samples": 5000,
                        "noise_sigma": 0.3, "margin": 0.3}
    assert raw["task"] == {"kind": "planted", "input_dim": 16}  # not mutated


def test_validate_config_unknown_keys_named():
    raw = _base_config("o")
    raw["typo_key"] = 1
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert "typo_key" in str(ei.value)

    raw = _base_config("o")
    raw["distill"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert "learning_rate" in str(ei.value)

    raw = _base_config("o")
    raw["task"]["path"] = "x.csv"  # not a planted-task key
    with pytest.raises(ConfigError):
        validate_config(raw)


def test_validate_config_required_and_ranges():
    raw = _base_config("o")
    del raw["task"]
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["widths"] = []
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["widths"] = [32, -1]
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["plan"]["layer_order"] = [0, 1]  # only one hidden layer
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["distill"]["alpha"] = 2.0  # section value errors become config errors
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["seed"] = -1
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["task"] = {"kind": "csv"}
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    del raw["output_dir"]
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["plan"]["layer_order"] = [0, 0]
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert "more than once" in str(ei.value)

    raw = _base_config("o")
    raw["plan"]["layer_order"] = 0
    with pytest.raises(ConfigError):
        validate_config(raw)


@pytest.mark.parametrize("key, value", [
    ("input_dim", "32"), ("input_dim", True), ("input_dim", 0),
    ("intrinsic_dim", 8.0), ("num_classes", None), ("n_samples", -5),
    ("noise_sigma", "x"), ("noise_sigma", -0.1), ("noise_sigma", float("nan")),
    ("margin", float("inf")), ("margin", False),
])
def test_validate_config_planted_task_values(key, value):
    raw = _base_config("o")
    raw["task"][key] = value
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert f"task.{key}" in str(ei.value)


def test_validate_config_planted_task_relations():
    raw = _base_config("o")
    raw["task"].update(input_dim=4, intrinsic_dim=8)
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert "intrinsic_dim" in str(ei.value)

    raw = _base_config("o")
    del raw["task"]["intrinsic_dim"]  # the default, 8, exceeds input_dim 4
    raw["task"]["input_dim"] = 4
    with pytest.raises(ConfigError):
        validate_config(raw)

    raw = _base_config("o")
    raw["task"]["num_classes"] = 1
    with pytest.raises(ConfigError) as ei:
        validate_config(raw)
    assert "num_classes" in str(ei.value)

    raw = _base_config("o")
    raw["task"].update(input_dim=4, intrinsic_dim=4, margin=0, noise_sigma=0)
    validate_config(raw)


def test_validate_config_overrides():
    raw = _base_config("orig")
    cfg = validate_config(raw, out_override="elsewhere", seed_override=99)
    assert cfg.output_dir == "elsewhere" and cfg.seed == 99
    assert validate_config(raw, seed_override=2**64 - 1).seed == 2**64 - 1


def test_parse_grid():
    assert _parse_grid("0.1,0.5, 0.9") == [0.1, 0.5, 0.9]
    with pytest.raises(ConfigError):
        _parse_grid("0.1,zebra")
    with pytest.raises(ConfigError):
        _parse_grid("0.5,1.5")
    with pytest.raises(ConfigError):
        _parse_grid(",")
    assert all(0.0 <= g <= 1.0 for g in DEFAULT_GRID)


# ---------------------------------------------------------------- exit codes

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
# values a valid config may hold, and an int too large for a float
_NEAR_VALID = st.sampled_from([0, 1, 0.5, 10**400, "planted", "csv", "d.csv"])
_REMOVED_KEYS = {"plan": {"min_k", "max_iterations", "target_reduction"},
                 "distill": {"epsilon_prob"}}
_KEY_PATHS = [(key,) for key in sorted(cli._TOP_KEYS)] + [
    (section, key)
    for section, keys in (("task", cli._TASK_KEYS["planted"] | cli._TASK_KEYS["csv"]),
                          ("distill", cli._DISTILL_KEYS | _REMOVED_KEYS["distill"]),
                          ("plan", cli._PLAN_KEYS | _REMOVED_KEYS["plan"]),
                          ("split", cli._SPLIT_KEYS))
    for key in sorted(keys)
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["planted", "csv"]),
       edits=st.lists(st.tuples(st.sampled_from(_KEY_PATHS), _NEAR_VALID | _JSON),
                      min_size=1, max_size=2))
def test_validate_config_random_values_typed(kind, edits):
    # any JSON value under any key, removed keys included, is a RunConfig
    # or a ConfigError
    raw = _base_config("out")
    if kind == "csv":
        raw["task"] = {"kind": "csv", "path": "d.csv"}
    for path, value in edits:
        target = raw if len(path) == 1 else raw.get(path[0])
        if isinstance(target, dict):  # an earlier edit may replace a section
            target[path[-1]] = value
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, cli.RunConfig) and isinstance(cfg.output_dir, str)
    assert all(isinstance(cfg.task.get(key, ""), str)
               for key in ("kind", "path", "label_column"))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for section, key in re.findall(r"^\| ([a-z]+(?: \([a-z]+\))?) \| `(\w+)` \|",
                                   readme, flags=re.MULTILINE):
        table.setdefault(section, set()).add(key)
    assert table == {
        "top": cli._TOP_KEYS,
        "task (planted)": cli._TASK_KEYS["planted"],
        "task (csv)": cli._TASK_KEYS["csv"],
        "distill": cli._DISTILL_KEYS,
        "plan": cli._PLAN_KEYS,
        "split": cli._SPLIT_KEYS,
    }


def test_exit_2_on_config_problems(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err == (
        f"config error: cannot read config file {tmp_path}: Is a directory\n")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2

    raw = _base_config(tmp_path / "o")
    raw["plan"]["quantile"] = 7.0
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2

    for edit in ({"intrinsic_dim": 32}, {"num_classes": 1}, {"input_dim": "32"},
                 {"noise_sigma": "x"}, {"n_samples": -5}):
        raw = _base_config(tmp_path / "o")
        raw["task"].update(edit)
        assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 2, edit

    for section, edit in (("distill", {"lr": "0.1"}), ("distill", {"batch_size": 1.5}),
                          ("plan", {"quantile": "0.5"}),
                          ("split", {"train_fraction": "x"}),
                          ("distill", {"lr": 10**400})):  # no float holds it
        raw = _base_config(tmp_path / "o")
        raw[section].update(edit)
        assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 2, edit

    for section, key, value in (("plan", "min_k", 1), ("plan", "max_iterations", 16),
                                ("plan", "target_reduction", 1.0),
                                ("distill", "epsilon_prob", 1e-12)):
        raw = _base_config(tmp_path / "o")
        raw[section][key] = value  # removed keys, even at their old defaults
        assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 2, key
        assert f"unknown key {key!r} in {section}" in capsys.readouterr().err

    csv_task = {"kind": "csv", "path": str(tmp_path / "d.csv")}
    for task in ({"kind": ["planted"]}, {"kind": {"planted": 1}},
                 dict(csv_task, path=None), dict(csv_task, path=0),
                 dict(csv_task, label_column=7)):
        raw = _base_config(tmp_path / "o")
        raw["task"] = task
        assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2, task
    for output_dir in (5, "", [], ["o"]):
        raw = _base_config(tmp_path / "o")
        raw["output_dir"] = output_dir
        assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2, output_dir

    raw = _base_config(tmp_path / "o")
    raw["widths"] = [True]
    assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 2

    # weight matrices of 2**40 or more entries, which NumPy refuses at once
    capsys.readouterr()
    for command, widths, quantile in (("train", [10**12], 0.7),
                                      ("train", [32, 2**40], 0.7),
                                      ("compress", [10**12], 1.0)):
        raw = _base_config(tmp_path / "o")
        raw["widths"] = widths
        raw["plan"]["quantile"] = quantile
        assert main([command, "--config", _write_config(tmp_path, raw)]) == 2, widths
        err = capsys.readouterr().err
        assert err.startswith(f"config error: widths {widths} too large"), err
        assert err.count("\n") == 1, err

    # a planted task too small to stratify is the config's fault; the same
    # split of a CSV file's data stays a runtime error (exit 1); margin 0
    # lets every draw count, so the split and not the margin refuses the task
    raw = _base_config(tmp_path / "o")
    raw["task"].update(n_samples=20, num_classes=10, margin=0)
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: planted task too small to split "
                          "(task.n_samples=20, task.num_classes=10, "
                          "split.train_fraction=0.8)"), err
    assert err.count("\n") == 1, err

    raw = _base_config(tmp_path / "o")
    raw["seed"] = 2**64  # one past the 8 bytes every sub-seed derives from
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2
    raw["seed"] = 7
    assert main(["train", "--config", _write_config(tmp_path, raw),
                 "--seed", str(2**64)]) == 2

    raw = _base_config(tmp_path / "o")
    raw["widths"] = [32, 32]
    raw["plan"]["layer_order"] = [0, 0]
    assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 2
    assert not (tmp_path / "o").exists()  # refused before any work

    assert main(["bogus", "--config", "x"]) == 2  # argparse rejection


@pytest.mark.parametrize("content, why", [
    pytest.param(b'{"seed": 7\xff}', "can't decode byte 0xff", id="not-utf8"),
    pytest.param(b"[" * 200000, "recursion", id="nested-too-deep"),
])
def test_exit_2_on_undecodable_config(tmp_path, capsys, content, why):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["compress", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: "), err
    assert why in err and "Traceback" not in err


@pytest.mark.parametrize("name, why", [
    pytest.param("missing.csv", "No such file or directory", id="missing"),
    pytest.param("", "Is a directory", id="directory"),
])
def test_exit_2_csv_task_path_cannot_be_read(tmp_path, capsys, name, why):
    data_path = str(tmp_path / name) if name else str(tmp_path)
    raw = _base_config(tmp_path / "o")
    raw["task"] = {"kind": "csv", "path": data_path}
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read task.path {data_path!r}: {why}\n"
    assert not (tmp_path / "o").exists()


def test_exit_2_spectrum_without_layer(tmp_path):
    cfgp = _write_config(tmp_path, _base_config(tmp_path / "o"))
    assert main(["spectrum", "--config", cfgp]) == 2


def test_exit_1_spectrum_without_checkpoint(tmp_path, capsys):
    cfgp = _write_config(tmp_path, _base_config(tmp_path / "o"))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    cp = tmp_path / "o" / "checkpoint.rmtk"
    assert capsys.readouterr().err == (
        f"error: no checkpoint at {cp}; run train with the same config first\n")


def test_exit_1_spectrum_on_v1_checkpoint(tmp_path, capsys):
    # a version 1 file, generator state after the header, is refused as such
    out = tmp_path / "o"
    out.mkdir()
    net = init_network([32], 16, 3, lambda shape: np.zeros(shape))
    blob = save_checkpoint(Checkpoint(network=net, metrics={}))
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    state = b'{"bit_generator":"Philox"}'
    (out / "checkpoint.rmtk").write_bytes(
        blob[:4] + struct.pack("<I", 1) + blob[8:end]
        + struct.pack("<I", len(state)) + state + blob[end:])
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    err = capsys.readouterr().err
    assert "format version 1, expected 3" in err and "Traceback" not in err


def test_exit_1_spectrum_on_v2_checkpoint(tmp_path, capsys):
    # a version 2 file, whose header also listed each step's (layer, d, k),
    # is refused as such
    out = tmp_path / "o"
    out.mkdir()
    net = init_network([32], 16, 3, lambda shape: np.zeros(shape))
    blob = save_checkpoint(Checkpoint(network=net, metrics={}))
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:end])
    header["history"] = []
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    (out / "checkpoint.rmtk").write_bytes(
        blob[:4] + struct.pack("<I", 2) + struct.pack("<I", len(raw)) + raw
        + blob[end:])
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    err = capsys.readouterr().err
    assert "format version 2, expected 3" in err and "Traceback" not in err


def test_exit_1_spectrum_on_checkpoint_with_unknown_header_key(tmp_path, capsys):
    # a version 3 file whose header still lists the old step history
    out = tmp_path / "o"
    out.mkdir()
    net = init_network([32], 16, 3, lambda shape: np.zeros(shape))
    blob = save_checkpoint(Checkpoint(network=net, metrics={}))
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:end])
    header["history"] = []
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    cp = out / "checkpoint.rmtk"
    cp.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[end:])
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    err = capsys.readouterr().err
    assert f"{cp}: header has unknown key 'history'" in err and "Traceback" not in err


def test_exit_1_spectrum_on_checkpoint_without_layers(tmp_path, capsys):
    # a header that lists no layers is a corrupt file, not a bad --layer
    out = tmp_path / "o"
    out.mkdir()
    raw = json.dumps({"input_dim": 16, "num_classes": 3, "layers": [],
                      "metrics": {}}).encode("utf-8")
    cp = out / "checkpoint.rmtk"
    cp.write_bytes(b"RMTK" + struct.pack("<II", 3, len(raw)) + raw)
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    assert capsys.readouterr().err == f"error: {cp}: a network needs at least one layer\n"


def test_exit_1_csv_task_too_small_to_stratify(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    data_path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,1\n")
    raw = _base_config(tmp_path / "o")
    raw["task"] = {"kind": "csv", "path": str(data_path)}
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == "error: class 0 has too few examples to stratify\n"


def test_exit_1_csv_task_not_utf8(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    data_path.write_bytes(b"f0,label\n1.0,0\n2.0,\xe9\n")
    raw = _base_config(tmp_path / "o")
    raw["task"] = {"kind": "csv", "path": str(data_path)}
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == f"error: {data_path}: byte 19 is not UTF-8 text\n"


def test_exit_1_spectrum_on_checkpoint_header_nested_too_deep(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    raw = b"[" * 200000
    cp = out / "checkpoint.rmtk"
    cp.write_bytes(b"RMTK" + struct.pack("<II", 3, len(raw)) + raw)
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cp}: ") and "recursion" in err, err


_HISTORY_HEADER = [f.name for f in fields(IterationRecord)]
_RECORD = IterationRecord(iteration=1, layer_id=2, d=64, k=17, sigma2=0.1,
                          lambda_plus=1 / 3, acc_before=0.962,
                          acc_after_finetune=0.987, params_before=6922,
                          params_after=5620)
_EDGES = np.linspace(0.0, 0.5, 3).tolist()
_HIST_HEADER = ("bin_left", "bin_right", "empirical", "model")


@pytest.mark.parametrize("header, rows, text", [
    # one column per IterationRecord field, in field order, values as repr
    (_HISTORY_HEADER, [astuple(_RECORD)] * 2,
     "iteration,layer_id,d,k,sigma2,lambda_plus,acc_before,"
     "acc_after_finetune,params_before,params_after\n"
     + "1,2,64,17,0.1,0.3333333333333333,0.962,0.987,6922,5620\n" * 2),
    # NumPy arrays through tolist(), as cmd_spectrum builds histogram_fit.csv
    (_HIST_HEADER, list(zip(_EDGES[:-1], _EDGES[1:],
                            np.array([1.5, 0.5]).tolist(),
                            (np.array([1.0, 6.0]) / 3).tolist())),
     "bin_left,bin_right,empirical,model\n"
     "0.0,0.25,1.5,0.3333333333333333\n0.25,0.5,0.5,2.0\n"),
    # no rows: the header line only
    (_HIST_HEADER, [], "bin_left,bin_right,empirical,model\n"),
], ids=["history", "histogram", "empty"])
def test_csv_text_exact(header, rows, text):
    assert csv_text(header, rows) == text


def test_exit_1_spectrum_on_non_finite_checkpoint(tmp_path, capsys):
    # a NaN weight is refused when the file is read, with the file named
    out = tmp_path / "o"
    out.mkdir()
    net = init_network([32], 16, 3, lambda shape: np.ones(shape))
    net.layers[0].weights[0, 0] = np.nan
    cp_path = out / "checkpoint.rmtk"
    cp_path.write_bytes(save_checkpoint(Checkpoint(network=net, metrics={})))
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cp_path}: layer 0 weights are not all finite\n"


def test_exit_1_when_output_dir_is_a_file(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("in the way")
    raw = _base_config(target)
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 1


# -------------------------------------------------------------- train output

def test_exit_2_planted_task_too_big_to_allocate(tmp_path, capsys):
    raw = _base_config(tmp_path / "o")
    raw["task"]["input_dim"] = 100_000_000_000  # NumPy refuses before allocating
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert "config error: planted task too large" in err
    assert "input_dim=100000000000" in err and "n_samples=600" in err
    assert not (tmp_path / "o").exists()


def test_exit_2_planted_margin_infeasible(tmp_path, capsys):
    raw = {"task": {"kind": "planted", "input_dim": 16, "intrinsic_dim": 4,
                    "num_classes": 3, "n_samples": 600, "margin": 50},
           "widths": [16], "output_dir": str(tmp_path / "o")}
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: planted task infeasible "), err
    assert "task.margin=50" in err and "task.n_samples=600" in err
    assert "task.num_classes=3" in err and "within 6000 draws" in err
    assert not (tmp_path / "o").exists()


def test_exit_1_on_diverging_training(tmp_path, capsys):
    raw = _base_config(tmp_path / "o")
    raw["distill"]["lr"] = 1e300
    for command in ("train", "compress"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", _write_config(tmp_path, raw)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert re.search(r"error: training diverged: batch loss nan at epoch 1, "
                         r"batch \d+;", err), err
        assert not (tmp_path / "o").exists()  # nothing written


def test_train_outputs(tmp_path):
    out = tmp_path / "run"
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["train", "--config", cfgp]) == 0
    names = sorted(os.listdir(out))
    assert names == ["checkpoint.rmtk", "training_log.csv"]

    log = (out / "training_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,train_loss,ce_term,kl_term,val_accuracy"
    assert len(log) >= 2
    last = log[-1].split(",")
    assert float(last[3]) == 0.0  # warm-up has no teacher, so no KL term

    cp = load_checkpoint(out / "checkpoint.rmtk")
    assert cp.metrics["val_accuracy"] >= 0.93
    assert cp.metrics["epochs_used"] == len(log) - 1
    assert cp.network.input_dim == 16
    assert [l.out_dim for l in cp.network.layers] == [32, 3]


def test_train_csv_task(tmp_path):
    rng = make_rng(0)
    x = np.concatenate([normal(rng, (3, 80), std=0.4) + 2.0,
                        normal(rng, (3, 80), std=0.4) - 2.0], axis=1)
    y = np.array([0] * 80 + [1] * 80)
    data_path = tmp_path / "blobs.csv"
    save_csv(Dataset(x=x, y=y, num_classes=2), data_path)

    out = tmp_path / "run"
    raw = _base_config(out)
    raw["task"] = {"kind": "csv", "path": str(data_path)}
    raw["widths"] = [8]
    raw["distill"]["accuracy_threshold"] = 0.9
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 0
    cp = load_checkpoint(out / "checkpoint.rmtk")
    assert cp.metrics["val_accuracy"] >= 0.9
    assert cp.network.input_dim == 3 and cp.network.num_classes == 2

    data_path.write_text("label\n0\n1\n")  # no feature column
    assert main(["train", "--config", _write_config(tmp_path, raw),
                 "--out", str(tmp_path / "labels-only")]) == 1
    data_path.write_text("a,a,label\n1,2,x\n3,4,y\n")  # repeated name
    assert main(["train", "--config", _write_config(tmp_path, raw),
                 "--out", str(tmp_path / "repeated")]) == 1


# ----------------------------------------------------------- spectrum output

def test_spectrum_outputs(tmp_path):
    out = tmp_path / "run"
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["train", "--config", cfgp]) == 0
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 0

    eig_lines = (out / "eigenvalues.csv").read_text().strip().split("\n")
    assert eig_lines[0] == "index,eigenvalue"
    assert len(eig_lines) == 1 + 32
    vals = [float(ln.split(",")[1]) for ln in eig_lines[1:]]
    assert vals == sorted(vals, reverse=True)

    fit_lines = (out / "histogram_fit.csv").read_text().strip().split("\n")
    assert fit_lines[0] == "bin_left,bin_right,empirical,model"
    assert len(fit_lines) >= 2

    model = json.loads((out / "mp_model.json").read_text())
    assert set(model) == {"sigma2", "q", "lambda_minus", "lambda_plus", "k"}
    assert model["sigma2"] > 0
    assert model["lambda_minus"] < model["lambda_plus"]
    assert 0 <= model["k"] <= 32
    # the eigenvalue file and the spike count must agree on the bulk edge
    assert model["k"] == sum(v > model["lambda_plus"] for v in vals)


def test_spectrum_agrees_with_compress_first_step(tmp_path):
    # spectrum computes eigenvalues only; compress analyses the same warmed-up
    # net on the same calibration split with eigenvectors.  k must be equal
    # and sigma2 equal up to the last bits of the two eigensolvers.
    raw = {
        "task": {"kind": "planted", "input_dim": 32, "intrinsic_dim": 8,
                 "num_classes": 10, "n_samples": 5000, "noise_sigma": 0.3},
        "widths": [64, 64],
        "distill": {"max_epochs": 40, "accuracy_threshold": 0.95},
        "plan": {"quantile": 0.7, "layer_order": [0, 1]},
        "seed": 0,
        "output_dir": str(tmp_path / "spectrum"),
    }
    cfgp = _write_config(tmp_path, raw)
    assert main(["train", "--config", cfgp]) == 0
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 0
    out_c = tmp_path / "compress"
    assert main(["compress", "--config", cfgp, "--out", str(out_c)]) == 0

    model = json.loads((tmp_path / "spectrum" / "mp_model.json").read_text())
    header, *rows = (out_c / "history.csv").read_text().splitlines()
    steps = [dict(zip(header.split(","), row.split(","))) for row in rows]
    # layer_id is the hidden-layer ordinal, not the index the first step's
    # frozen projection shifts the second layer to
    assert [s["layer_id"] for s in steps] == ["0", "1"]
    step = steps[0]
    assert model["k"] == int(step["k"])
    sigma2 = float(step["sigma2"])
    assert abs(model["sigma2"] - sigma2) <= 1e-12 * sigma2


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A tiny ``train`` run: (config path, output dir, checkpoint bytes)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "run"
    cfgp = _write_config(tmp, _base_config(out))
    assert main(["train", "--config", cfgp]) == 0
    return cfgp, out, (out / "checkpoint.rmtk").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_spectrum_on_damaged_checkpoint_exits_typed(trained_checkpoint, data):
    # A bit-flipped, overwritten or truncated checkpoint ends in an exit code,
    # never in a traceback or in a NaN fit.  About half the positions fall in
    # the JSON header.
    cfgp, out, blob = trained_checkpoint
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    pos = data.draw(st.one_of(st.integers(0, header_end - 1),
                              st.integers(0, len(blob) - 1)), label="pos")
    kind = data.draw(st.sampled_from(["flip", "overwrite", "truncate"]), label="kind")
    damaged = bytearray(blob)
    if kind == "flip":
        damaged[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    elif kind == "overwrite":
        patch = data.draw(st.binary(min_size=1, max_size=16), label="patch")
        damaged[pos:pos + len(patch)] = patch
    else:
        del damaged[pos:]
    (out / "checkpoint.rmtk").write_bytes(bytes(damaged))
    rc = main(["spectrum", "--config", cfgp, "--layer", "0"])
    assert rc in (0, 1, 2)
    if rc == 0:
        model = json.loads((out / "mp_model.json").read_text())
        assert all(np.isfinite(v) for v in model.values())


def test_spectrum_bad_layer_ordinal(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    raw = _base_config(out)
    cfgp = _write_config(tmp_path, raw)
    assert main(["train", "--config", cfgp]) == 0
    assert main(["spectrum", "--config", cfgp, "--layer", "5"]) == 2

    def no_work(*args, **kwargs):
        raise AssertionError("the checkpoint is refused before any work")

    monkeypatch.setattr(cli, "build_task", no_work)
    monkeypatch.setattr(cli, "analyse_layer", no_work)
    # --layer is checked against widths; a checkpoint with fewer hidden
    # layers than the config lists is a runtime failure naming the ordinal
    raw["widths"] = [32, 32]
    cfgp = _write_config(tmp_path, raw, name="wider.json")
    capsys.readouterr()
    assert main(["spectrum", "--config", cfgp, "--layer", "1"]) == 1
    assert capsys.readouterr().err == "error: no hidden layer ordinal 1\n"
    # and one whose analysed layer is not widths[--layer] wide, writing nothing
    trained = sorted(os.listdir(out))
    raw["widths"] = [64, 64]
    cfgp = _write_config(tmp_path, raw, name="wider.json")
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    assert capsys.readouterr().err == (f"error: {out / 'checkpoint.rmtk'}: hidden layer 0 "
                                       "is 32 wide, widths[0] is 64\n")
    assert sorted(os.listdir(out)) == trained


def test_spectrum_on_checkpoint_of_another_input_width(tmp_path, capsys):
    # the checkpoint takes 16 inputs; the config's task now makes 8
    out = tmp_path / "run"
    raw = _base_config(out)
    assert main(["train", "--config", _write_config(tmp_path, raw)]) == 0
    trained = {name: (out / name).read_bytes() for name in os.listdir(out)}
    raw["task"].update(input_dim=8, margin=0.1)
    cfgp = _write_config(tmp_path, raw, name="narrower.json")
    capsys.readouterr()
    assert main(["spectrum", "--config", cfgp, "--layer", "0"]) == 1
    assert capsys.readouterr().err == (f"error: {out / 'checkpoint.rmtk'}: the network's "
                                       "input is 16 wide, the task's data is 8 wide\n")
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == trained


def test_exit_2_flag_of_another_command(tmp_path, capsys):
    cfgp = _write_config(tmp_path, _base_config(tmp_path / "o"))
    for argv, flag, command in (
            (["train", "--layer", "5", "--quantiles", "9,9"], "--layer", "spectrum"),
            (["compress", "--quantiles", "0.5"], "--quantiles", "ablate"),
            (["ablate", "--layer", "0"], "--layer", "spectrum"),
            (["spectrum", "--layer", "0", "--quantiles", "0.5"], "--quantiles", "ablate")):
        assert main(argv + ["--config", cfgp]) == 2, argv
        assert capsys.readouterr().err == (f"config error: {flag} is for {command} "
                                           f"only, not {argv[0]}\n")
    assert not (tmp_path / "o").exists()


def test_round_off_quantile_init_fails_with_context(tmp_path, capsys):
    # 64 units over 48 calibration columns: at least 16 eigenvalues are zero,
    # so the 0.1-quantile init of sigma2 is round-off and the fit is undefined
    out = tmp_path / "run"
    raw = _base_config(out)
    raw["widths"] = [64]
    raw["plan"]["quantile"] = 0.1
    raw["split"]["calibration_fraction"] = 0.1
    cfgp = _write_config(tmp_path, raw)
    assert main(["train", "--config", cfgp]) == 0
    trained = sorted(os.listdir(out))
    capsys.readouterr()

    compress_out = tmp_path / "compressed"
    for argv in (["spectrum", "--config", cfgp, "--layer", "0"],
                 ["compress", "--config", cfgp, "--out", str(compress_out)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: hidden layer 0: ") and "Traceback" not in err
        assert "quantile 0.1" in err and "d=64" in err and "n=48" in err
        zeros = re.search(r"(\d+) of d=64 eigenvalues are zero", err)
        assert zeros and int(zeros.group(1)) >= 64 - 48
        assert "plan.quantile" in err and "split.calibration_fraction" in err
    assert sorted(os.listdir(out)) == trained
    assert not compress_out.exists()


def test_sure_degenerate_layer_fails_before_training(tmp_path, capsys, monkeypatch):
    # widths [32, 64] over 48 calibration columns: layer 1 has at least 16
    # zero eigenvalues, so any quantile <= 15/63 is refused up front
    calls = []

    def no_training(*args, **kwargs):
        calls.append(args)
        raise AssertionError("train_until ran")

    monkeypatch.setattr(cli, "train_until", no_training)
    raw = _base_config(tmp_path / "o")
    raw["widths"] = [32, 64]
    raw["split"]["calibration_fraction"] = 0.1
    for quantile, argv, named in ((0.2, ["compress"], 0.2),
                                  (0.7, ["ablate", "--quantiles", "0.5,0.1,0.2"], 0.1)):
        raw["plan"]["quantile"] = quantile
        assert main(argv + ["--config", _write_config(tmp_path, raw)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: hidden layer 1: ") and "Traceback" not in err
        assert f"quantile {named} is round-off" in err
        assert "16 of d=64 eigenvalues are zero with n=48" in err
        assert "plan.quantile" in err and "split.calibration_fraction" in err
    assert calls == []
    assert not (tmp_path / "o").exists()

    # the loop never reaches layer 1, or the quantile clears the zeros
    for plan in ({"quantile": 0.25}, {"quantile": 0.2, "layer_order": [0]}):
        raw["plan"] = plan
        cfg = validate_config(raw)
        check_calibration_rank(cfg.widths, 48, cfg.plan, [cfg.plan.quantile])


def test_degenerate_layer_named_by_its_ordinal(tmp_path, capsys):
    # hidden layer 1 turns out degenerate at quantile 0.3 only after layer 0
    # was projected, so a frozen P sits in front of it: the message still
    # names the config's ordinal.  Dead relu units make it degenerate, and no
    # config key sets those: running this ablate at seeds 0-39 failed only at
    # seed 14, with layer 0's P in front.
    raw = {"task": {"kind": "planted", "input_dim": 8, "intrinsic_dim": 4,
                    "num_classes": 3, "n_samples": 600},
           "widths": [8, 8], "plan": {"quantile": 0.5}, "seed": 14,
           "output_dir": str(tmp_path / "o")}
    argv = ["ablate", "--quantiles", "0.3,0.7", "--config", _write_config(tmp_path, raw)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hidden layer 1: ") and "Traceback" not in err


# ----------------------------------------------------------- compress output

def test_compress_outputs_and_rerun_bit_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    raw = _base_config(out_a)
    cfgp = _write_config(tmp_path, raw)
    assert main(["compress", "--config", cfgp]) == 0
    assert main(["compress", "--config", cfgp, "--out", str(out_b)]) == 0

    summary = json.loads((out_a / "summary.json").read_text())
    assert set(summary) == {"baseline_accuracy", "final_accuracy",
                            "reduction_fraction", "trainable_params",
                            "frozen_params", "steps"}
    assert summary["baseline_accuracy"] >= 0.93
    assert 0.0 < summary["reduction_fraction"] < 1.0
    assert summary["steps"] == 1

    hist = (out_a / "history.csv").read_text().strip().split("\n")
    assert hist[0].startswith("iteration,layer_id,d,k,")
    assert len(hist) == 2
    k = int(hist[1].split(",")[3])
    assert 1 <= k < 32

    cp = load_checkpoint(out_a / "checkpoint.rmtk")
    assert [l.weights.shape for l in cp.network.layers if l.frozen] == [(k, 32)]
    blob = (out_a / "checkpoint.rmtk").read_bytes()
    header = json.loads(blob[12:12 + struct.unpack("<I", blob[8:12])[0]])
    assert "history" not in header

    for name in ("summary.json", "history.csv", "training_log.csv",
                 "checkpoint.rmtk"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every rmtkd module that bound it."""
    for name, module in sorted(sys.modules.items()):
        if name == "rmtkd" or name.startswith("rmtkd."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_compress_skips_a_step_that_keeps_every_direction(tmp_path):
    # at quantile 0 every direction of this 4-wide layer is a spike: before
    # the skip, a frozen 4 x 4 rotation was kept below the accuracy floor
    raw = _base_config(tmp_path / "o")
    raw.update(widths=[4], seed=1, distill={"max_epochs": 3},
               plan={"quantile": 0.0, "accuracy_floor": 1.0})
    assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["frozen_params"] == 0 and summary["reduction_fraction"] == 0.0
    assert summary["final_accuracy"] == summary["baseline_accuracy"]
    _, row = (tmp_path / "o" / "history.csv").read_text().splitlines()
    assert row.split(",")[2:4] == ["4", "4"]  # d, k
    cp = load_checkpoint(tmp_path / "o" / "checkpoint.rmtk")
    assert not any(layer.frozen for layer in cp.network.layers)


def test_compress_computes_each_validation_accuracy_once(tmp_path, monkeypatch):
    # Each accuracy a compress op reports was measured by a training epoch;
    # none is computed a second time.
    from rmtkd import distill
    accuracy_calls, epochs = [], []

    def counting_accuracy(*args, **kwargs):
        accuracy_calls.append(1)
        return original_accuracy(*args, **kwargs)

    def recording_train_until(*args, **kwargs):
        result = original_train_until(*args, **kwargs)
        epochs.append(result[1])
        return result

    original_accuracy, original_train_until = distill.accuracy, distill.train_until
    _patch_everywhere(monkeypatch, original_accuracy, counting_accuracy)
    _patch_everywhere(monkeypatch, original_train_until, recording_train_until)
    raw = {
        "task": {"kind": "planted", "input_dim": 32, "intrinsic_dim": 8,
                 "num_classes": 10, "n_samples": 5000, "noise_sigma": 0.3},
        "widths": [64, 64],
        "distill": {"max_epochs": 40, "accuracy_threshold": 0.95},
        "plan": {"quantile": 0.7, "layer_order": [0, 1]},
        "output_dir": str(tmp_path / "o"),
    }
    assert main(["compress", "--config", _write_config(tmp_path, raw)]) == 0
    assert len(epochs) == 3  # warm-up and two fine-tunes
    assert len(accuracy_calls) == sum(epochs) == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["steps"] == 2


def test_compress_seed_changes_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfgp = _write_config(tmp_path, _base_config(out_a))
    assert main(["compress", "--config", cfgp]) == 0
    assert main(["compress", "--config", cfgp, "--out", str(out_b),
                 "--seed", "8"]) == 0
    assert (out_a / "checkpoint.rmtk").read_bytes() != \
        (out_b / "checkpoint.rmtk").read_bytes()


# ------------------------------------------------------------- ablate output

def test_ablate_grid_rows(tmp_path):
    out = tmp_path / "run"
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["ablate", "--config", cfgp, "--quantiles", "0.3,0.7"]) == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "quantile,final_accuracy,reduction_fraction"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert [r[0] for r in rows] == [0.3, 0.7]
    for _, acc, red in rows:
        assert 0.0 <= acc <= 1.0 and 0.0 <= red < 1.0
    assert rows[0][2] <= rows[1][2]  # stricter quantile removes more


# ------------------------------------------------------------------ plumbing

def test_write_outputs_atomic_no_droppings(tmp_path, monkeypatch):
    out = tmp_path / "o"
    write_outputs(str(out), {"a.txt": "alpha", "b.bin": b"\x00\x01"})
    assert sorted(os.listdir(out)) == ["a.txt", "b.bin"]
    assert (out / "a.txt").read_text() == "alpha"
    assert (out / "b.bin").read_bytes() == b"\x00\x01"

    # a failed rename (a directory stands where c.txt goes) or a failed
    # write leaves no temp file behind
    (out / "c.txt").mkdir()
    with pytest.raises(IsADirectoryError):
        write_outputs(str(out), {"c.txt": "gamma"})
    assert sorted(os.listdir(out)) == ["a.txt", "b.bin", "c.txt"]

    def full_disk(fd, mode):
        os.close(fd)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fdopen", full_disk)
    with pytest.raises(OSError):
        write_outputs(str(out), {"d.txt": "delta"})
    assert sorted(os.listdir(out)) == ["a.txt", "b.bin", "c.txt"]


def test_write_outputs_never_sets_the_umask(tmp_path, monkeypatch):
    # the kernel applies the umask to each temp file as it is created, so
    # no other thread ever sees the process umask changed
    def no_umask(*args):
        raise AssertionError("write_outputs set the process umask")

    real_umask = os.umask
    old = real_umask(0o027)
    monkeypatch.setattr(os, "umask", no_umask)
    try:
        write_outputs(str(tmp_path / "o"), {"a.txt": "alpha", "b.bin": b""})
    finally:
        real_umask(old)
    for name in ("a.txt", "b.bin"):
        assert (tmp_path / "o" / name).stat().st_mode & 0o777 == 0o640, name


def test_write_outputs_renames_nothing_when_a_target_is_a_directory(tmp_path, capsys):
    out = tmp_path / "o2"
    (out / "checkpoint.rmtk").mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as err:
        write_outputs(str(out), {"a.txt": "alpha", "checkpoint.rmtk": b"", "z.txt": ""})
    assert err.value.filename == str(out / "checkpoint.rmtk")
    assert os.listdir(out) == ["checkpoint.rmtk"]
    # train renames neither its log nor its checkpoint, and names the target
    cfgp = _write_config(tmp_path, _base_config(out))
    assert main(["train", "--config", cfgp]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 21] Is a directory: '{out / 'checkpoint.rmtk'}'\n")
    assert os.listdir(out) == ["checkpoint.rmtk"]
    assert os.listdir(out / "checkpoint.rmtk") == []


def test_every_csv_cell_is_a_number(tmp_path):
    # every cell below the header of every CSV the four commands write
    # parses as a float (a NumPy 2 scalar's repr, np.float64(x), does not)
    out = tmp_path / "run"
    cfgp = _write_config(tmp_path, _base_config(out))
    for argv in (["train"], ["spectrum", "--layer", "0"], ["compress"],
                 ["ablate", "--quantiles", "0.3,0.7"]):
        assert main(argv + ["--config", cfgp]) == 0
    tables = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
    assert tables == ["ablation.csv", "eigenvalues.csv", "histogram_fit.csv",
                      "history.csv", "training_log.csv"]
    for name in tables:
        lines = (out / name).read_text().splitlines()
        assert len(lines) >= 2, name
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)  # raises on a non-number, naming the cell


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_outputs_take_the_umask(tmp_path, umask, mode):
    # each file train writes has the mode open() would give: 0o666 & ~umask
    out = tmp_path / "run"
    cfgp = _write_config(tmp_path, _base_config(out))
    old = os.umask(umask)
    try:
        assert main(["train", "--config", cfgp]) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(out))
    assert names == ["checkpoint.rmtk", "training_log.csv"]
    for name in names:
        assert (out / name).stat().st_mode & 0o777 == mode, name


def _declared_console_script(name):
    """The `[project.scripts]` entry point called `name` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} script"
    return EntryPoint(name, scripts[name], "console_scripts")


def _launcher_argv(ep):
    """Run `ep` in a fresh interpreter the way a console-script launcher does:
    import the target, call it with no arguments, exit with what it returns."""
    head = ep.attr.split(".")[0]
    code = (f"import sys; from {ep.module} import {head}; "
            f"sys.exit({ep.attr}())")
    return [sys.executable, "-c", code]


def test_console_entry_point(tmp_path):
    ep = _declared_console_script("rmtkd")
    assert callable(ep.load())  # fails if the declared target is wrong

    # The child must run the code under test, not some other installed copy.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(rmtkd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    launchers = [(_launcher_argv(ep), env)]
    exe = shutil.which("rmtkd")
    if exe is not None:  # also check the installed script, where there is one
        launchers.append(([exe], None))

    for i, (argv, child_env) in enumerate(launchers):
        out = tmp_path / f"run{i}"
        cfgp = _write_config(tmp_path, _base_config(out), name=f"config{i}.json")
        done = subprocess.run(argv + ["train", "--config", cfgp],
                              capture_output=True, text=True, env=child_env)
        assert done.returncode == 0, done.stderr
        assert (out / "checkpoint.rmtk").exists()

        # main()'s exit code must survive the process boundary (2 = config error).
        missing = str(tmp_path / "no_such_config.json")
        done = subprocess.run(argv + ["train", "--config", missing],
                              capture_output=True, text=True, env=child_env)
        assert done.returncode == 2, (argv, done.stderr)
