"""tools/bench_pairs.py: pair wins follow each metric's direction, and both
sides are exported side by side without touching the checkout."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")


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


def test_bench_pairs_export_leaves_the_checkout_as_it_was(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.py").write_text("A = 1\n")
    (repo / "b.py").write_text("")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "a.py").write_text("A = 2\n")
    _git(repo, "add", "a.py")  # staged
    (repo / "a.py").write_text("A = 3\n")  # then edited again
    (repo / "b.py").unlink()
    (repo / "new.py").write_text("")

    def state():
        return [subprocess.run(["git", *args], cwd=repo, capture_output=True,
                               check=True).stdout
                for args in (["status", "--porcelain"], ["diff", "--cached"])]

    before = state()
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    out = tmp_path / "export"
    out.mkdir()
    _, trees = bench_pairs.export("HEAD", str(out))
    assert state() == before
    assert b"A = 2" in before[1] and b"?? new.py" in before[0]
    assert (Path(trees["change"]) / "a.py").read_text() == "A = 3\n"
