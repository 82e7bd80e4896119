"""Hash every output file of the four rmtkd subcommands on the README toy config,
of ``compress`` on the wide benchmark config, of ``spectrum`` on the
2048-wide spectrum benchmark config and of ``compress`` on a CSV copy of
the toy task.

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
column a calibration column), and ``compress`` on a ``kind: "csv"`` task
(the toy config's planted task for that seed, written with
``data.save_csv`` as the run's ``task.csv``, so ``save_csv`` and
``load_csv`` are byte-checked too), each run into a temporary directory.
It prints one line ``<sha256> <run>/<seed>/<file>`` per output file, sorted
by path.  The toy, wide and spectrum configs are the ``WORKLOADS`` configs
of ``perfbench/run.py``, read from that file, so the digest byte-checks
what the benchmark times.

Two checkouts that print the same listing write the same bytes, so
``diff`` of two listings proves a refactor changed no output.  ``--src``
imports ``rmtkd`` from another checkout's ``src/`` instead.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_workloads():
    """perfbench/run.py's WORKLOADS; loading the file only defines its
    constants and functions."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _benchmark_workloads()
TOY_CONFIG = WORKLOADS["toy"]["config"]
ROLLBACK_CONFIG = dict(TOY_CONFIG, plan=dict(TOY_CONFIG["plan"], accuracy_floor=1.0))
# the task path is set per seed, to the run's own task.csv
CSV_CONFIG = dict(TOY_CONFIG, task={"kind": "csv"})
SPECTRUM = ["spectrum", "--layer", "0"]
# (run name, config, commands run in turn into the run's directory);
# "spectrum" reads the checkpoint "train" wrote
RUNS = [
    ("train", TOY_CONFIG, [["train"]]),
    ("spectrum", TOY_CONFIG, [SPECTRUM]),
    ("compress", TOY_CONFIG, [["compress"]]),
    ("ablate", TOY_CONFIG, [["ablate", "--quantiles", "0.3,0.7"]]),
    ("compress-rollback", ROLLBACK_CONFIG, [["compress"]]),
    ("wide-compress", WORKLOADS["wide"]["config"], [["compress"]]),
    ("spectrum-wide", WORKLOADS["spectrum"]["config"], [["train"], SPECTRUM]),
    ("csv", CSV_CONFIG, [["compress"]]),
]


def write_toy_task_csv(path, seed):
    """Write the toy config's planted task for ``seed`` to ``path`` as CSV."""
    from rmtkd.cli import build_task, validate_config
    from rmtkd.data import save_csv

    cfg = validate_config(TOY_CONFIG, out_override="unused", seed_override=seed)
    save_csv(build_task(cfg), path)


def digests(work, seeds, main):
    """Run every command for every seed under ``work``; return sorted lines."""
    lines = []
    for seed in seeds:
        for name, config, commands in RUNS:
            out = os.path.join(work, name, str(seed))
            os.makedirs(out)
            if name == "spectrum":
                shutil.copy(os.path.join(work, "train", str(seed), "checkpoint.rmtk"), out)
            if name == "csv":
                config = dict(config, task=dict(config["task"],
                                                path=os.path.join(out, "task.csv")))
                write_toy_task_csv(config["task"]["path"], seed)
            config_path = os.path.join(work, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh, sort_keys=True)
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
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory to import rmtkd from (default: ./src)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
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
