"""Fixed-seed benchmark of the rmtkd command line.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run sets up its workload several times in fresh processes,
runs one warm-up op, then repeats the workload's CLI op in-process through
``rmtkd.cli.main`` until ``--seconds`` have passed.  Every op must exit 0
and write files byte-identical to the warm-up op's.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced ops and reports the per-layer
metrics; the spans go to ``.perfbench/trace-<workload>.jsonl``.  The last
line of standard output is the JSON result.  See perfbench/README.md for
why each workload exists.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
SETUP_ROUNDS = 5
PEAK_RSS_OPS = 3  # timed ops after the warm-up op before peak memory is read

TOY_TASK = {"kind": "planted", "input_dim": 32, "intrinsic_dim": 8,
            "num_classes": 10, "n_samples": 5000, "noise_sigma": 0.3}
WIDE_TASK = dict(TOY_TASK, input_dim=128, intrinsic_dim=16, n_samples=20000)
DISTILL = {"max_epochs": 40, "accuracy_threshold": 0.95}
COMPRESS_OUTPUTS = ["checkpoint.rmtk", "history.csv", "summary.json",
                    "training_log.csv"]
SPECTRUM_REACHES = [
    "rng.normal", "data.planted_subspace_task", "data.split",
    "network.forward", "spectral.compute_covariance", "spectral.eig_sym",
    "spectral.init_sigma2", "spectral.fit_sigma2", "spectral.classify",
    "cli.main", "cli.build_task", "cli.write_outputs",
]
COMPRESS_REACHES = SPECTRUM_REACHES + [
    "network.backward", "network.sgd_step", "network.save_checkpoint",
    "distill.train_until", "distill.combined_loss", "distill.accuracy",
    "distill.snapshot_teacher", "reducer.run_loop", "reducer.compress_step",
    "reducer.apply_projection",
]

# setup: CLI command run once per set-up round; op: the timed CLI command;
# reaches: functions a traced op must call at least once; exact: per-op
# counts the workload pins exactly.
WORKLOADS = {
    "toy": {
        "config": {"task": TOY_TASK, "widths": [64, 64], "distill": DISTILL,
                   "plan": {"quantile": 0.7, "layer_order": [0, 1]}},
        "setup": None, "op": ["compress"], "outputs": COMPRESS_OUTPUTS,
        "reaches": COMPRESS_REACHES, "exact": {"spectral.eig_sym.calls": 2},
        "teacher": True,
    },
    "wide": {
        "config": {"task": WIDE_TASK, "widths": [512, 512], "distill": DISTILL,
                   "plan": {"quantile": 0.7, "layer_order": [0, 1]}},
        "setup": None, "op": ["compress"], "outputs": COMPRESS_OUTPUTS,
        "reaches": COMPRESS_REACHES, "exact": {"spectral.eig_sym.calls": 2},
        "teacher": True,
    },
    "spectrum": {
        "config": {"task": TOY_TASK, "widths": [2048], "distill": DISTILL,
                   "split": {"calibration_fraction": 1.0},
                   "plan": {"quantile": 0.7, "layer_order": [0]}},
        "setup": ["train"], "op": ["spectrum", "--layer", "0"],
        "outputs": ["eigenvalues.csv", "histogram_fit.csv", "mp_model.json"],
        "reaches": SPECTRUM_REACHES,
        "exact": {"spectral.eig_sym.calls": 1,
                  "network.load_checkpoint.calls": 1},
        "teacher": False,
    },
}


def numpy_environment():
    """Set NumPy's environment before it loads; return the usable CPUs.

    BLAS threads are capped at the CPUs this process may use.  NumPy's
    huge-page advice is turned off: whether a large array gets huge pages
    depends on its address and on the host's free memory, so peak memory
    moved between runs of identical code in steps of about 8 MB (wide:
    193.7, 202.1 or 209.4 MB).
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rmtkd.cli
    if not os.path.abspath(rmtkd.__file__).startswith(src + os.sep):
        raise ImportError(f"rmtkd was imported from {rmtkd.__file__}")
    return rmtkd


def cli_argv(command, config_path, out_dir, seed):
    return command + ["--config", config_path, "--out", out_dir,
                      "--seed", str(seed)]


def setup_round(args):
    """One set-up round, run in a fresh process: imports, config, setup op."""
    rmtkd = import_package()
    wl = WORKLOADS[args.workload]
    os.makedirs(args.setup_dir)
    config_path = os.path.join(args.setup_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wl["config"], fh, sort_keys=True)
    rmtkd.cli.validate_config(wl["config"], out_override=args.setup_dir,
                              seed_override=args.workload_seed)
    rc = 0
    if wl["setup"] is not None:
        rc = rmtkd.cli.main(cli_argv(wl["setup"], config_path, args.setup_dir,
                                     args.workload_seed))
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # start time; waiting on the child with a timeout polls every 50 ms.
    print(f"setup_end {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    return rc


def read_files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def set_up(args, work):
    """Run SETUP_ROUNDS set-up processes; return (wall seconds, config, dir).

    Every round must exit 0 and leave byte-identical files.
    """
    seconds, contents = [], []
    for r in range(SETUP_ROUNDS):
        d = os.path.join(work, f"setup{r}")
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--workload-seed", str(args.workload_seed),
             "--setup-dir", d], cwd=ROOT, timeout=170, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.splitlines()
        sys.stderr.writelines(line + "\n" for line in lines[:-1])
        if (proc.returncode != 0 or not lines
                or not lines[-1].startswith("setup_end ")):
            raise RuntimeError(f"set-up round {r} exited {proc.returncode}")
        seconds.append(float(lines[-1].split()[1]) - t0)
        contents.append(read_files(d))
    if any(c != contents[0] for c in contents):
        raise RuntimeError("set-up rounds wrote different files")
    d = os.path.join(work, "setup0")
    return seconds, os.path.join(d, "config.json"), d


def run_op(cli, argv, out_dir, outputs):
    """Run one CLI op in-process; return (exit code, wall s, output bytes)."""
    for name in outputs:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.unlink(path)

    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # an op that raises counts as failed; the run goes on
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - start
    files = {}
    for name in outputs:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return rc, seconds, files


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def guards(rmtkd, wl, config_path, out_dir, files):
    """The four quality guards; each must repeat exactly for a fixed seed.

    The parameter counts and MACs come from the checkpoint the op leaves in
    ``out_dir`` (for ``spectrum``, the one it analysed); the warm-up
    trainable count follows from the configured widths.
    """
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    cp = rmtkd.network.load_checkpoint(os.path.join(out_dir, "checkpoint.rmtk"))
    net = cp.network
    dims = [net.input_dim] + config["widths"] + [net.num_classes]
    warm_up = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
    trainable, frozen = rmtkd.network.param_count(net)
    if "summary.json" in files:
        accuracy = json.loads(files["summary.json"])["final_accuracy"]
    else:
        accuracy = cp.metrics["val_accuracy"]
    return {
        "final_accuracy": accuracy,
        "trainable_ratio": trainable / warm_up,
        "total_param_ratio": (trainable + frozen) / warm_up,
        "macs_per_example": sum(l.weights.size for l in net.layers),
    }


def self_check(wl, metrics, absent):
    """Problems with what a traced op reached; empty when all is as chosen."""
    problems = [f"{name} is absent from the package" for name in absent]
    for name in wl["reaches"]:
        if metrics[f"{name}.calls"] < 1:
            problems.append(f"{name} recorded no call")
    if wl["teacher"] and metrics["network.forward.teacher_calls"] < 1:
        problems.append("network.forward recorded no teacher call")
    for key, want in wl["exact"].items():
        if metrics[key] != want:
            problems.append(f"{key} is {metrics[key]}, expected {want}")
    return problems


def blas_record(np):
    record = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        record.update(name=None, version=None)
    record["threads"] = None
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["threads"] = fn()
                return record
    return record


def environment(args, np, nproc):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=20,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rmtkd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": nproc, "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": blas_record(np), "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16], "workload": args.workload,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "workload_seed": args.workload_seed, "run_seed": args.seed,
        "trace": args.trace,
    }


def benchmark(args, nproc):
    rmtkd = import_package()
    import numpy as np

    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]
    env = environment(args, np, nproc)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work = os.path.join(STATE, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_rounds, config_path, setup_dir = set_up(args, work)
        out_dir = setup_dir if wl["setup"] else os.path.join(work, "ops")
        argv = cli_argv(wl["op"], config_path, out_dir, args.workload_seed)
        tracer = tracing.Tracer() if args.trace else None
        problems = []

        def check(rc, files, reference):
            if rc != 0:
                problems.append(f"op exited {rc}")
            elif sorted(files) != sorted(wl["outputs"]):
                problems.append(f"op wrote {sorted(files)}")
            elif reference is not None and files != reference:
                problems.append("op output differs from the warm-up op's")
            else:
                return True
            return False

        # The first op of a process runs 10-15% slower than later ones; it
        # is checked and counted but its time stays out of op_s.
        rc, first_op_s, reference = run_op(rmtkd.cli, argv, out_dir,
                                           wl["outputs"])
        attempted = 1
        failed = 0 if check(rc, reference, None) else 1
        timed = {True: [], False: []}  # traced? -> [(op number, wall s)]
        start = time.perf_counter()
        # At least PEAK_RSS_OPS ops run, so a traced run has both kinds.
        while (time.perf_counter() - start < args.seconds
               or attempted <= PEAK_RSS_OPS):
            traced = bool(args.trace) and attempted % 2 == 1
            op = lambda: run_op(rmtkd.cli, argv, out_dir, wl["outputs"])
            rc, seconds, files = tracer.run(attempted, op) if traced else op()
            failed += 0 if check(rc, files, reference) else 1
            timed[traced].append((attempted, seconds))
            if attempted == PEAK_RSS_OPS:
                # Peak memory grows with the number of ops (wide: 198 MB
                # after 4 ops, 216 MB after 18), and how many ops fit in a
                # run depends on the machine's speed; a fixed op count keeps
                # the metric comparable and still shows growth per op.
                peak_rss_mb = maxrss_mb()
            attempted += 1

        values = guards(rmtkd, wl, config_path, out_dir, reference)
        values.update(
            op_s=statistics.median(s for _, s in timed[False]),
            setup_s=statistics.median(setup_rounds),
            peak_rss_mb=peak_rss_mb,
        )
        if args.trace:
            per_op = [tracer.op_metrics(op) for op, _ in timed[True]]
            for m in per_op:
                problems += self_check(wl, m, tracer.absent)
            values.update(tracing.median_metrics(per_op))
            values["trace.overhead_s"] = (
                statistics.median(s for _, s in timed[True]) - values["op_s"])
            tracer.write(os.path.join(STATE, f"trace-{args.workload}.jsonl"),
                         dict(env, absent=tracer.absent, problems=problems,
                              computed=["network.forward.gmacs",
                                        "spectral.compute_covariance.gmacs",
                                        "spectral.eig_sym.dim",
                                        "cli.write_outputs.bytes"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in sorted(set(problems)):
        print(f"problem: {problem}", file=sys.stderr)
    print("raw " + json.dumps({
        "first_op_wall_s": first_op_s,
        "peak_rss_mb_at_end": maxrss_mb(),
        "setup_wall_s": setup_rounds,
        "op_wall_s": [s for _, s in timed[False]],
    }), flush=True)
    print(f"{args.workload}: failed {failed}/{attempted} ops", flush=True)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: recorded; the inputs come from --workload-seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="seed the rmtkd CLI receives; fixed so runs repeat")
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    nproc = numpy_environment()
    try:
        if args.setup_dir:
            return setup_round(args)
        return benchmark(args, nproc)
    except ImportError as e:
        print(f"cannot import rmtkd from {ROOT}/src: {e}", file=sys.stderr)
        return 3
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
