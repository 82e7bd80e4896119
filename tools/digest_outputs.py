"""Hash every output file of the four rmtkd subcommands on the README toy config,
of ``compress`` on the wide benchmark config and of ``spectrum`` on the
2048-wide spectrum benchmark config.

    python3 tools/digest_outputs.py --seeds 0 1

Run from a source checkout; ``rmtkd`` is imported from the ``src/`` next to
this script.  For each seed it runs ``train``, ``spectrum --layer 0`` (on a
copy of that seed's trained checkpoint), ``compress`` and ``ablate
--quantiles 0.3,0.7`` on the toy config, ``compress`` on the toy config with
``plan.accuracy_floor: 1.0`` (so the first step is rolled back and the loop
stops), ``compress`` on the wide config (input 128, N=20000, widths
[512, 512], whose 512-wide gemms the toy config's 64-wide layers do not
exercise), then ``train`` and ``spectrum --layer 0`` into one directory on
the spectrum benchmark's config (toy task, widths [2048], every train
column a calibration column), each run into a temporary directory.
It prints one line ``<sha256> <run>/<seed>/<file>`` per output file, sorted
by path.

Two checkouts that print the same listing write the same bytes, so
``diff`` of two listings proves a refactor changed no output.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY_CONFIG = {
    "task": {"kind": "planted", "input_dim": 32, "intrinsic_dim": 8,
             "num_classes": 10, "n_samples": 5000, "noise_sigma": 0.3},
    "widths": [64, 64],
    "distill": {"max_epochs": 40, "accuracy_threshold": 0.95},
    "plan": {"quantile": 0.7, "layer_order": [0, 1]},
}
ROLLBACK_CONFIG = dict(TOY_CONFIG, plan=dict(TOY_CONFIG["plan"], accuracy_floor=1.0))
WIDE_CONFIG = {
    "task": dict(TOY_CONFIG["task"], input_dim=128, intrinsic_dim=16, n_samples=20000),
    "widths": [512, 512],
    "distill": TOY_CONFIG["distill"],
    "plan": TOY_CONFIG["plan"],
}
SPECTRUM_WIDE_CONFIG = {
    "task": TOY_CONFIG["task"],
    "widths": [2048],
    "distill": TOY_CONFIG["distill"],
    "split": {"calibration_fraction": 1.0},
    "plan": {"quantile": 0.7, "layer_order": [0]},
}
SPECTRUM = ["spectrum", "--layer", "0"]
# (run name, config, commands run in turn into the run's directory);
# "spectrum" reads the checkpoint "train" wrote
RUNS = [
    ("train", TOY_CONFIG, [["train"]]),
    ("spectrum", TOY_CONFIG, [SPECTRUM]),
    ("compress", TOY_CONFIG, [["compress"]]),
    ("ablate", TOY_CONFIG, [["ablate", "--quantiles", "0.3,0.7"]]),
    ("compress-rollback", ROLLBACK_CONFIG, [["compress"]]),
    ("wide-compress", WIDE_CONFIG, [["compress"]]),
    ("spectrum-wide", SPECTRUM_WIDE_CONFIG, [["train"], SPECTRUM]),
]


def digests(work, seeds, main):
    """Run every command for every seed under ``work``; return sorted lines."""
    lines = []
    for seed in seeds:
        for name, config, commands in RUNS:
            config_path = os.path.join(work, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh, sort_keys=True)
            out = os.path.join(work, name, str(seed))
            os.makedirs(out)
            if name == "spectrum":
                shutil.copy(os.path.join(work, "train", str(seed), "checkpoint.rmtk"), out)
            for argv in commands:
                rc = main(argv + ["--config", config_path, "--out", out,
                                  "--seed", str(seed)])
                if rc != 0:
                    raise RuntimeError(f"{name} {argv[0]} with seed {seed} exited {rc}")
            for fname in os.listdir(out):
                with open(os.path.join(out, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{digest} {name}/{seed}/{fname}")
    return sorted(lines, key=lambda line: line.split(" ", 1)[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rmtkd.cli import main as rmtkd_main

    work = tempfile.mkdtemp(prefix="rmtkd-digest-")
    try:
        for line in digests(work, args.seeds, rmtkd_main):
            print(line)
    except RuntimeError as e:
        print(f"digest failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
