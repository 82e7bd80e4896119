"""Command-line entry point.

Four subcommands over a single JSON config:

* ``train``    -- warm up a network on the configured task, write a
                  checkpoint and a per-epoch training log.
* ``spectrum`` -- eigenvalue spectrum + bulk fit of one layer's calibration
                  activations from a saved checkpoint.
* ``compress`` -- warm up, run the full compression loop, write the history,
                  final checkpoint, and a JSON summary.
* ``ablate``   -- one compression run per quantile in a grid, CSV table out.

Configs are validated strictly (unknown keys are errors) before any work
starts.  All outputs are written atomically (temp file + rename) with the
mode a plain ``open()`` would give under the umask, and all randomness
derives from the single top-level seed via tagged sub-seeds, so reruns are
bit-identical.  This module turns every result into text: each CSV table
through :func:`rmtkd.data.csv_text`, the package's one CSV writer, and
each JSON file through :func:`json_text`.  Exit codes: 0 success,
1 runtime failure, 2 config/usage error.
"""

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, astuple, dataclass, fields, replace

from .data import SplitSpec, csv_text, load_csv, planted_subspace_task, split
from .distill import TRAINING_LOG_HEADER, DistillConfig, train_until
from .errors import ConfigError, GenerationFailure, InvalidInput, RmtkdError
from .network import (Checkpoint, init_network, load_checkpoint, param_count,
                      save_checkpoint)
from .reducer import (CompressionPlan, IterationRecord, analyse_layer,
                      check_calibration_rank, final_accuracy, quantile_ablation,
                      run_loop)
from .rng import derive_seed, make_rng, normal

DEFAULT_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

_PLANTED_DEFAULTS = {"input_dim": 32, "intrinsic_dim": 8, "num_classes": 10,
                     "n_samples": 5000, "noise_sigma": 0.3, "margin": 0.3}
_TASK_KEYS = {
    "planted": {"kind", *_PLANTED_DEFAULTS},
    "csv": {"kind", "path", "label_column"},
}
# Each section's keys are its dataclass's fields; the split seed is derived.
_DISTILL_KEYS = {f.name for f in fields(DistillConfig)}
_PLAN_KEYS = {f.name for f in fields(CompressionPlan)}
_SPLIT_KEYS = {f.name for f in fields(SplitSpec)} - {"seed"}
_INT_KEYS = {f.name for cls in (DistillConfig, CompressionPlan, SplitSpec)
             for f in fields(cls) if f.type is int} - {"seed"}  # else numbers
_TOP_KEYS = {"task", "widths", "distill", "plan", "split", "seed", "output_dir"}


@dataclass
class RunConfig:
    task: dict
    widths: list
    distill: DistillConfig
    plan: CompressionPlan
    split_spec: SplitSpec
    seed: int
    output_dir: str


def _check_keys(section, given, allowed):
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {section}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_planted(task):
    for key in ("input_dim", "intrinsic_dim", "num_classes", "n_samples"):
        value = task[key]
        if not _is_int(value) or value < 1:
            raise ConfigError(f"task.{key} must be a positive integer, got {value!r}")
    for key in ("noise_sigma", "margin"):
        value = task[key]
        if not _is_number(value) or value < 0:
            raise ConfigError(f"task.{key} must be a finite number >= 0, got {value!r}")
    if task["intrinsic_dim"] > task["input_dim"]:
        raise ConfigError("task.intrinsic_dim must be <= task.input_dim")
    if task["num_classes"] < 2:
        raise ConfigError("task.num_classes must be >= 2")


def _section(raw, name, allowed):
    """The ``name`` section as a dict, its keys and value types checked."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    _check_keys(name, section, allowed)
    for key, value in section.items():
        if key == "layer_order":
            continue  # checked against widths below
        if key in _INT_KEYS and not _is_int(value):
            raise ConfigError(f"{name}.{key} must be an integer, got {value!r}")
        if key not in _INT_KEYS and not _is_number(value):
            raise ConfigError(f"{name}.{key} must be a finite number, got {value!r}")
    return dict(section)


def validate_config(raw, out_override=None, seed_override=None):
    """Validate a config dict into a RunConfig; every constraint up front."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys("config", raw, _TOP_KEYS)
    for key in ("task", "widths"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    task = raw["task"]
    if not isinstance(task, dict) or "kind" not in task:
        raise ConfigError("task must be an object with a 'kind'")
    if not isinstance(task["kind"], str) or task["kind"] not in _TASK_KEYS:
        raise ConfigError(f"unknown task kind {task['kind']!r}")
    _check_keys("task", task, _TASK_KEYS[task["kind"]])
    if task["kind"] == "csv":
        if not isinstance(task.get("path"), str):
            raise ConfigError("csv task needs a 'path' string")
        if not isinstance(task.get("label_column", "label"), str):
            raise ConfigError(f"task.label_column must be a string, got {task['label_column']!r}")
    if task["kind"] == "planted":
        task = {**_PLANTED_DEFAULTS, **task}
        _check_planted(task)

    widths = raw["widths"]
    if (not isinstance(widths, list) or not widths
            or not all(_is_int(w) and w >= 1 for w in widths)):
        raise ConfigError("widths must be a non-empty list of positive integers")

    distill_raw = _section(raw, "distill", _DISTILL_KEYS)
    plan_raw = _section(raw, "plan", _PLAN_KEYS)
    plan_raw.setdefault("layer_order", list(range(len(widths))))
    split_raw = _section(raw, "split", _SPLIT_KEYS)
    try:
        distill = DistillConfig(**distill_raw)
        plan = CompressionPlan(**plan_raw)
        split_spec = SplitSpec(**split_raw)
    except InvalidInput as e:
        raise ConfigError(str(e)) from e

    if not isinstance(plan.layer_order, list):
        raise ConfigError("layer_order must be a list of hidden-layer ordinals")
    bad = [o for o in plan.layer_order
           if not _is_int(o) or not 0 <= o < len(widths)]
    if bad:
        raise ConfigError(f"layer_order entry {bad[0]!r} does not name a hidden layer")
    repeated = [o for i, o in enumerate(plan.layer_order) if o in plan.layer_order[:i]]
    if repeated:
        raise ConfigError(f"layer_order names hidden layer {repeated[0]} more than once")

    seed = raw.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    output_dir = out_override or raw.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a non-empty string (or pass --out), "
                          f"got {output_dir!r}")
    return RunConfig(task=task, widths=widths, distill=distill, plan=plan,
                     split_spec=split_spec, seed=int(seed), output_dir=output_dir)


def build_task(cfg):
    """Materialize the configured dataset, deterministically from the seed."""
    task = cfg.task
    if task["kind"] == "planted":
        try:
            ds, _ = planted_subspace_task(**{k: task[k] for k in _PLANTED_DEFAULTS},
                                          seed=derive_seed(cfg.seed, "task"))
        except (ValueError, MemoryError) as e:  # NumPy cannot allocate the arrays
            raise ConfigError(
                f"planted task too large to generate (input_dim={task['input_dim']}, "
                f"n_samples={task['n_samples']}): {e}"
            ) from None
        except GenerationFailure as e:
            raise ConfigError(
                f"planted task infeasible (task.margin={task['margin']}, "
                f"task.n_samples={task['n_samples']}, task.num_classes="
                f"{task['num_classes']}): {e}; try a smaller task.margin"
            ) from None
        return ds
    try:
        return load_csv(task["path"], label_column=task.get("label_column", "label"))
    except OSError as e:  # the config names a file that cannot be read
        raise ConfigError(f"cannot read task.path {task['path']!r}: {e.strerror}") from None


def _split_parts(cfg, ds):
    try:
        return split(ds, replace(cfg.split_spec, seed=derive_seed(cfg.seed, "split")))
    except InvalidInput as e:
        if cfg.task["kind"] != "planted":
            raise  # the CSV data is at fault, not the config
        raise ConfigError(
            f"planted task too small to split (task.n_samples={cfg.task['n_samples']}, "
            f"task.num_classes={cfg.task['num_classes']}, "
            f"split.train_fraction={cfg.split_spec.train_fraction}): {e}"
        ) from None


def _warm_up(cfg, parts, log_rows=None):
    train_part, val_part, _ = parts
    init_rng = make_rng(derive_seed(cfg.seed, "init"))
    try:
        net = init_network(cfg.widths, train_part.dim, train_part.num_classes,
                           lambda shape: normal(init_rng, shape))
    except (ValueError, MemoryError) as e:  # NumPy cannot allocate the weights
        raise ConfigError(f"widths {cfg.widths} too large to allocate: {e}") from None
    warmup_rng = make_rng(derive_seed(cfg.seed, "warmup"))
    return train_until(net, (train_part, val_part), cfg.distill, rng=warmup_rng,
                       log_rows=log_rows)


def write_outputs(outdir, staged):
    """Atomically write {filename: str|bytes}: temp files, then renames.

    Each file gets the mode a plain ``open()`` would give, 0o666 less the
    umask, not the 0o600 of its temp file.  A directory where any output
    goes is refused before the first rename, so that case renames nothing;
    the writes are atomic per file only, so another rename failure can
    still leave the files renamed before it.
    """
    os.makedirs(outdir, exist_ok=True)
    umask = os.umask(0)  # reading the umask means setting it; put it back
    os.umask(umask)
    tmp_paths = []
    try:
        for name, content in staged.items():
            data = content.encode("utf-8") if isinstance(content, str) else content
            fd, tmp = tempfile.mkstemp(dir=outdir, prefix=f".{name}.")
            tmp_paths.append((tmp, os.path.join(outdir, name)))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.chmod(tmp, 0o666 & ~umask)
        # a directory in an output's place would stop the renames part-way
        for _, final in tmp_paths:
            if os.path.isdir(final) and not os.path.islink(final):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), final)
        for tmp, final in tmp_paths:
            os.replace(tmp, final)
    except OSError:
        for tmp, _ in tmp_paths:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _checkpoint_bytes(net, metrics):
    return save_checkpoint(Checkpoint(network=net, metrics=metrics))


def json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_train(cfg):
    parts = _split_parts(cfg, build_task(cfg))
    log_rows = []
    net, epochs, acc = _warm_up(cfg, parts, log_rows)
    trainable, _ = param_count(net)
    staged = {
        "training_log.csv": csv_text(TRAINING_LOG_HEADER, log_rows),
        "checkpoint.rmtk": _checkpoint_bytes(net, {
            "val_accuracy": acc, "epochs_used": epochs,
            "trainable_params": trainable,
        }),
    }
    write_outputs(cfg.output_dir, staged)
    return 0


def cmd_spectrum(cfg, layer_ordinal):
    cp_path = os.path.join(cfg.output_dir, "checkpoint.rmtk")
    if not os.path.isfile(cp_path):
        raise InvalidInput(f"no checkpoint at {cp_path}; run train with the same "
                           "config first")
    net = load_checkpoint(cp_path).network
    _, _, cal_part = _split_parts(cfg, build_task(cfg))
    if net.input_dim != cal_part.dim:
        raise InvalidInput(f"{cp_path}: the network's input is {net.input_dim} wide, "
                           f"the task's data is {cal_part.dim} wide")
    spectrum, model, partition, fit = analyse_layer(net, cal_part.x, layer_ordinal,
                                                    cfg.plan.quantile,
                                                    vectors=False)
    if spectrum.d != cfg.widths[layer_ordinal]:
        raise InvalidInput(f"{cp_path}: hidden layer {layer_ordinal} is {spectrum.d} wide, "
                           f"widths[{layer_ordinal}] is {cfg.widths[layer_ordinal]}")
    edges = fit.bin_edges.tolist()
    staged = {
        "eigenvalues.csv": csv_text(("index", "eigenvalue"),
                                    enumerate(spectrum.eigenvalues.tolist())),
        "histogram_fit.csv": csv_text(
            ("bin_left", "bin_right", "empirical", "model"),
            zip(edges[:-1], edges[1:], fit.empirical_density.tolist(),
                fit.model_density.tolist())),
        "mp_model.json": json_text({**asdict(model), "k": partition.k}),
    }
    write_outputs(cfg.output_dir, staged)
    return 0


def cmd_compress(cfg):
    parts = _split_parts(cfg, build_task(cfg))
    check_calibration_rank(cfg.widths, parts[2].x.shape[1], cfg.plan,
                           [cfg.plan.quantile])
    log_rows = []
    net, _, base_acc = _warm_up(cfg, parts, log_rows)
    base_params, _ = param_count(net)
    loop_rng = make_rng(derive_seed(cfg.seed, "loop"))
    net, history = run_loop(net, parts, cfg.plan, cfg.distill, loop_rng, base_acc)
    trainable, frozen = param_count(net)
    final_acc = final_accuracy(history, cfg.plan, base_acc)
    summary = {
        "baseline_accuracy": base_acc,
        "final_accuracy": final_acc,
        "reduction_fraction": 1.0 - trainable / base_params,
        "trainable_params": trainable,
        "frozen_params": frozen,
        "steps": len(history),
    }
    staged = {
        "training_log.csv": csv_text(TRAINING_LOG_HEADER, log_rows),
        "history.csv": csv_text([f.name for f in fields(IterationRecord)],
                                map(astuple, history)),
        "summary.json": json_text(summary),
        "checkpoint.rmtk": _checkpoint_bytes(net, {
            "val_accuracy": final_acc,
            "baseline_accuracy": base_acc,
            "reduction_fraction": summary["reduction_fraction"],
        }),
    }
    write_outputs(cfg.output_dir, staged)
    return 0


def cmd_ablate(cfg, grid):
    parts = _split_parts(cfg, build_task(cfg))
    check_calibration_rank(cfg.widths, parts[2].x.shape[1], cfg.plan, grid)
    baseline, _, base_acc = _warm_up(cfg, parts)
    rows = quantile_ablation(baseline, base_acc, parts, grid, cfg.plan,
                             cfg.distill, seed=derive_seed(cfg.seed, "ablate"))
    table = csv_text(("quantile", "final_accuracy", "reduction_fraction"), rows)
    write_outputs(cfg.output_dir, {"ablation.csv": table})
    return 0


def _parse_grid(text):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad quantile list {text!r}") from None
    if not grid or not all(0.0 <= g <= 1.0 for g in grid):
        raise ConfigError("quantiles must lie in [0, 1]")
    return grid


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rmtkd", description=__doc__)
    parser.add_argument("command", choices=["train", "spectrum", "compress", "ablate"])
    parser.add_argument("--config", required=True, help="path to JSON run config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed (overrides config)")
    parser.add_argument("--quantiles", help="comma-separated grid for ablate")
    parser.add_argument("--layer", type=int, help="hidden-layer ordinal for spectrum")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config}: {e.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        cfg = validate_config(raw, out_override=args.out, seed_override=args.seed)
        for flag, value, command in (("--layer", args.layer, "spectrum"),
                                     ("--quantiles", args.quantiles, "ablate")):
            if value is not None and args.command != command:
                raise ConfigError(f"{flag} is for {command} only, not {args.command}")
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "spectrum":
            if args.layer is None:
                raise ConfigError("spectrum needs --layer")
            if not 0 <= args.layer < len(cfg.widths):
                raise ConfigError(f"--layer {args.layer} does not name a hidden layer")
            return cmd_spectrum(cfg, args.layer)
        if args.command == "compress":
            return cmd_compress(cfg)
        grid = _parse_grid(args.quantiles) if args.quantiles else list(DEFAULT_GRID)
        return cmd_ablate(cfg, grid)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RmtkdError, OSError) as e:  # OSError: a checkpoint or output file
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
