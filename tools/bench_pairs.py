"""Alternate benchmark runs of a parent commit and of this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --workloads spectrum \\
        --pairs 10 --out BENCH_14.json

Exports ``--parent`` and this checkout's working tree (edits and untracked
files that git does not ignore count, deleted files do not) through one
``git archive`` path into two sibling directories of one temporary directory,
so both sides get the same kind of place, file rules and mtimes.  Then it
runs ``perfbench/run.py`` in each, ``--pairs`` times per workload,
alternating which side runs first.  Both sides get the same ``--seconds`` and
``--workload-seed``.  The JSON file records, per ``<workload>/<seed>``, each
side's ``env`` line, every run's metrics, and per end-to-end metric each
side's median and quartiles and how many pairs the change won, lost and
tied (by the metric's ``better`` direction in BENCHMARK.json).  Sections
already in ``--out`` for other workloads or seeds are kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev, directory):
    """Write commit ``rev`` to ``directory/parent`` and this checkout's working
    tree to ``directory/change``; return (rev's hash, {side: tree}).  The
    working tree is written as a tree object through a scratch index, so the
    checkout's own index is left as it is."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    env = {**os.environ, "GIT_INDEX_FILE": os.path.join(directory, "index")}
    _git("add", "-A", env=env)
    sources = {"parent": f"{sha}^{{tree}}", "change": _git("write-tree", env=env)}
    # extraction filters arrived in Python 3.10.12 / 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    trees = {}
    for side, tree in sources.items():
        archive = os.path.join(directory, f"{side}.tar")
        _git("archive", "--output", archive, tree)
        trees[side] = os.path.join(directory, side)
        with tarfile.open(archive) as tar:
            tar.extractall(trees[side], **safe)
        os.unlink(archive)
    return sha, trees


def run_once(checkout, workload, seconds, seed):
    """One ``perfbench/run.py`` run; return (env dict, result dict)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--workload-seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
        timeout=600 + 10 * seconds)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: {workload} run exited {proc.returncode}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    result = json.loads(lines[-1])
    return env, {"correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"],
                 **{k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs, spec):
    """Per metric: each side's median and quartiles, and the change's record."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        entry = {}
        for side in ("parent", "change"):
            values = [r[side][name] for r in runs]
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else (values[0],) * 3)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        deltas = [r["change"][name] - r["parent"][name] for r in runs]
        entry["change_wins"] = sum(d < 0 if lower else d > 0 for d in deltas)
        entry["parent_wins"] = sum(d > 0 if lower else d < 0 for d in deltas)
        entry["ties"] = deltas.count(0)
        out[name] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file to write or extend")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sha, checkouts = export(args.parent, tmp)
        record.update(parent=sha, seconds=args.seconds)
        record.setdefault("runs", {})
        for workload in args.workloads:
            envs, runs = {}, []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    envs[side], pair[side] = run_once(
                        checkouts[side], workload, args.seconds, args.workload_seed)
                runs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} {pair[side]['op_s']:.3f} s {pair[side]['peak_rss_mb']:.1f} MB"
                    for side in ("parent", "change")), flush=True)
            record["runs"][f"{workload}/{args.workload_seed}"] = {
                "env": envs, "pairs": runs, "summary": summary(runs, spec)}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
