"""tools/compare_checkpoints.py: header-only differences pass, payload ones
fail; tools/bench_pairs.py: pair wins follow each metric's direction, and
both sides are exported side by side."""

import importlib.util
import json
import struct
import subprocess
from pathlib import Path

import pytest

from rmtkd.network import Checkpoint, init_network, save_checkpoint
from rmtkd.rng import make_rng, normal

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_checkpoints", ROOT / "tools" / "compare_checkpoints.py")
compare_checkpoints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_checkpoints)


def _blob(metrics=None, nudge=None):
    rng = make_rng(3)
    net = init_network([4], 3, 2, lambda shape: normal(rng, shape))
    if nudge is not None:
        layer, name = nudge
        getattr(net.layers[layer], name).flat[0] += 1e-12
    return save_checkpoint(Checkpoint(network=net, metrics=metrics or {"acc": 0.5}))


def _as_v2(blob):
    """The same checkpoint laid out as format 2: an extra ``history`` key."""
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hlen])
    header["history"] = [[0, 4, 2]]
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return blob[:4] + struct.pack("<II", 2, len(raw)) + raw + blob[12 + hlen:]


def _pair(tmp_path, old, new):
    paths = []
    for side, blob in (("old", old), ("new", new)):
        path = tmp_path / side / "compress" / "0" / "checkpoint.rmtk"
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        paths.append(path)
    return paths


def test_header_only_difference_passes(tmp_path):
    old, new = _pair(tmp_path, _as_v2(_blob()), _blob())
    line = compare_checkpoints.compare(old, new)
    assert line.startswith("version 2 -> 3, header keys removed ['history'], added []")
    assert compare_checkpoints.checkpoints(tmp_path / "old") == [
        str(Path("compress") / "0" / "checkpoint.rmtk")]


@pytest.mark.parametrize("new, why", [
    (_blob(nudge=(0, "weights")), "layer 0 weights differ"),
    (_blob(nudge=(1, "bias")), "layer 1 bias differ"),
    (_blob(metrics={"acc": 0.25}), "header 'metrics' differs"),
], ids=["weights", "bias", "metrics"])
def test_payload_or_metric_difference_fails(tmp_path, new, why):
    old, new = _pair(tmp_path, _as_v2(_blob()), new)
    with pytest.raises(ValueError, match=why):
        compare_checkpoints.compare(old, new)


def test_flag_difference_fails(tmp_path):
    blob = _blob()
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hlen])
    header["layers"][1]["frozen"] = True
    raw = json.dumps(header).encode("utf-8")
    frozen = blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:]
    old, new = _pair(tmp_path, blob, frozen)
    with pytest.raises(ValueError, match="header 'layers' differs"):
        compare_checkpoints.compare(old, new)


_bench_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_bench_spec)
_bench_spec.loader.exec_module(bench_pairs)


def test_bench_pairs_summary_counts_wins_by_direction():
    spec = {"end_to_end": [{"name": "peak_rss_mb", "better": "lower"},
                           {"name": "final_accuracy", "better": "higher"}]}
    parent = [(150.0, 0.9), (152.0, 0.9), (154.0, 0.9), (156.0, 0.9)]
    change = [(110.0, 0.9), (160.0, 0.9), (112.0, 0.9), (114.0, 0.95)]
    runs = [{"parent": dict(zip(("peak_rss_mb", "final_accuracy"), p)),
             "change": dict(zip(("peak_rss_mb", "final_accuracy"), c))}
            for p, c in zip(parent, change)]
    out = bench_pairs.summary(runs, spec)
    rss, acc = out["peak_rss_mb"], out["final_accuracy"]
    assert (rss["change_wins"], rss["parent_wins"], rss["ties"]) == (3, 1, 0)
    assert (acc["change_wins"], acc["parent_wins"], acc["ties"]) == (1, 0, 3)
    assert rss["parent"] == {"median": 153.0, "q1": 151.5, "q3": 154.5}
    assert rss["change"]["median"] == 113.0


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_bench_pairs_exports_both_sides_as_siblings(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("")
    (repo / ".gitignore").write_text("built/\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")  # uncommitted edit
    (repo / "new.py").write_text("")  # untracked
    (repo / "gone.py").unlink()  # deleted, not yet committed
    (repo / "built").mkdir()
    (repo / "built" / "out.bin").write_text("")  # ignored
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    out = tmp_path / "export"
    out.mkdir()
    _, trees = bench_pairs.export("HEAD", str(out))
    parent, change = Path(trees["parent"]), Path(trees["change"])
    assert parent.parent == change.parent == out
    assert (parent / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert (change / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert (parent / "gone.py").exists() and not (change / "gone.py").exists()
    assert (change / "new.py").exists() and not (change / "built").exists()
