"""Spans around rmtkd's public functions, recorded from outside the package.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each listed function with a wrapper that records a span (name, start, end,
parent span, op) plus a few counts, in every ``rmtkd`` module namespace
that bound the function.  ``cli``, ``reducer``, ``distill`` and ``data``
import names with ``from .x import y``, so patching ``rmtkd.network.forward``
alone would miss every call made from ``distill`` and ``reducer``.

Counts whose name ends in ``gmacs``, ``dim`` or ``bytes`` are computed from
array shapes and byte lengths, not measured.
"""

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "data", "network", "distill", "spectral", "reducer", "cli")


def _normal(args, kwargs, result):
    size = kwargs.get("size", args[1] if len(args) > 1 else None)
    return {"values": 1 if size is None else int(np.prod(size))}


def _forward(args, kwargs, result):
    net, batch = args[0], args[1]
    columns = np.shape(batch)[1]
    weights = sum(layer.weights.size for layer in net.layers)
    teacher = all(layer.frozen for layer in net.layers)
    return {"columns": columns, "gmacs": weights * columns / 1e9,
            "teacher": int(teacher)}


def _train_until(args, kwargs, result):
    train_part = args[1][0]
    epochs = result[1]
    return {"epochs": epochs, "examples": epochs * np.shape(train_part.x)[1]}


def _compute_covariance(args, kwargs, result):
    x = args[0]
    d, n = np.shape(getattr(x, "entries", x))
    return {"gmacs": d * d * n / 1e9}


def _eig_sym(args, kwargs, result):
    return {"dim": np.shape(args[0])[0]}


def _write_outputs(args, kwargs, result):
    staged = args[1]
    return {"bytes": sum(len(c.encode("utf-8") if isinstance(c, str) else c)
                         for c in staged.values())}


def _run_loop(args, kwargs, result):
    # Same outcome rule as reducer.run_loop: k == d is a skip, and a reduced
    # step that ends below the accuracy floor is rolled back.
    plan, history = args[2], result[1]
    skipped = sum(r.k == r.d for r in history)
    rolled = sum(r.k < r.d and r.acc_after_finetune < plan.accuracy_floor
                 for r in history)
    return {"applied": len(history) - skipped - rolled, "skipped": skipped,
            "rolled_back": rolled}


# (layer, public function, counts taken from its arguments and result)
TARGETS = [
    ("rng", "normal", _normal),
    ("data", "planted_subspace_task", None),
    ("data", "split", None),
    ("network", "forward", _forward),
    ("network", "backward", None),
    ("network", "sgd_step", None),
    ("network", "save_checkpoint", None),
    ("network", "load_checkpoint", None),
    ("distill", "train_until", _train_until),
    ("distill", "combined_loss", None),
    ("distill", "accuracy", None),
    ("distill", "snapshot_teacher", None),
    ("spectral", "compute_covariance", _compute_covariance),
    ("spectral", "eig_sym", _eig_sym),
    ("spectral", "init_sigma2", None),
    ("spectral", "fit_sigma2", None),
    ("spectral", "classify", None),
    ("reducer", "run_loop", _run_loop),
    ("reducer", "compress_step", None),
    ("reducer", "apply_projection", None),
    ("cli", "main", None),
    ("cli", "build_task", None),
    ("cli", "write_outputs", _write_outputs),
]
NAMES = [f"{layer}.{func}" for layer, func, _ in TARGETS]


class Tracer:
    """Patches the targets while active; keeps finished spans in memory."""

    def __init__(self):
        self.spans = []  # (op, id, parent, name, start, end, counts)
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._op = None
        self._patches = []  # (module, attribute, original, wrapper)
        found = []
        for layer, func, counts in TARGETS:
            original = getattr(importlib.import_module(f"rmtkd.{layer}"), func, None)
            if callable(original):
                found.append((f"{layer}.{func}", original, counts))
            else:
                self.absent.append(f"{layer}.{func}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rmtkd" or n.startswith("rmtkd.")]
        for name, original, counts in found:
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, original, counts):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            extra = counts(args, kwargs, result) if counts else {}
            self.spans.append((self._op, span_id, parent, name, start, end, extra))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def run(self, op, fn):
        """Call ``fn()`` with every target patched; spans are tagged ``op``."""
        self._op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return fn()
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._op = None

    def op_metrics(self, op):
        """Per-layer metrics of one traced op, keyed as in BENCHMARK.json.

        ``.s`` is inclusive time, ``.self_s`` excludes child spans, and
        ``<layer>.share`` is the layer's self time over ``cli.main.s``.
        Every target gets a ``.calls`` entry, 0 when absent or not reached.
        """
        spans = [s for s in self.spans if s[0] == op]
        child = defaultdict(float)
        for _, _, parent, _, start, end, _ in spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        teacher_s = 0.0
        dim = 0
        for _, span_id, _, name, start, end, extra in spans:
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[span_id]
            for key, value in extra.items():
                sums[f"{name}.{key}"] += value
            if extra.get("teacher"):
                teacher_s += end - start
            if name == "spectral.eig_sym":
                dim = max(dim, extra["dim"])
        m = {f"{name}.calls": calls[name] for name in NAMES}
        m.update({f"{name}.s": incl[name] for name in NAMES})
        m.update({f"{name}.self_s": self_s[name] for name in NAMES})
        m.update({
            "rng.normal.values": sums["rng.normal.values"],
            "network.forward.columns": sums["network.forward.columns"],
            "network.forward.gmacs": sums["network.forward.gmacs"],
            "network.forward.teacher_calls": sums["network.forward.teacher"],
            "network.forward.teacher_s": teacher_s,
            "distill.train_until.epochs": sums["distill.train_until.epochs"],
            "distill.train_until.examples_per_s": (
                sums["distill.train_until.examples"] / incl["distill.train_until"]
                if incl["distill.train_until"] > 0 else 0.0),
            "spectral.compute_covariance.gmacs":
                sums["spectral.compute_covariance.gmacs"],
            "spectral.eig_sym.dim": dim,
            "reducer.steps_applied": sums["reducer.run_loop.applied"],
            "reducer.steps_skipped": sums["reducer.run_loop.skipped"],
            "reducer.steps_rolled_back": sums["reducer.run_loop.rolled_back"],
            "cli.write_outputs.bytes": sums["cli.write_outputs.bytes"],
        })
        root = incl["cli.main"]
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items()
                             if k.startswith(layer + "."))
            m[f"{layer}.share"] = layer_self / root if root > 0 else 0.0
        return m

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for op, span_id, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     **extra}) + "\n")


def median_metrics(per_op):
    """Median of each metric over a list of per-op metric dicts."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
