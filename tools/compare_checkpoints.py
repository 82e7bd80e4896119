"""Check that two trees of ``checkpoint.rmtk`` files hold the same network.

    python3 tools/digest_outputs.py --seeds 0 1 2 --src OLD/src --keep old-out
    python3 tools/digest_outputs.py --seeds 0 1 2 --keep new-out
    python3 tools/compare_checkpoints.py old-out new-out

Every ``checkpoint.rmtk`` under the first directory is paired with the file
at the same relative path under the second; both trees must hold the same
set.  Each file is parsed at the byte level (magic, version, JSON header,
raw weights), so files of different format versions compare.  A pair
passes when the dimensions, every layer's shape, activation and flags, the
metrics, and every layer's weight and bias bytes are equal.  For each pair
it prints one line with the format versions and the header keys present in
only one file, and it exits 1 at the first pair that does not pass.

A digest line that changed only because a header key was added or dropped
is then shown to change nothing a loaded network computes.
"""

import argparse
import json
import os
import struct
import sys

MAGIC = b"RMTK"
COMPARED = ("input_dim", "num_classes", "layers", "metrics")


def parse(path):
    """``(version, header, [(weights_bytes, bias_bytes_or_None), ...])``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, hlen = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    off = 12 + hlen
    params = []
    for spec in header["layers"]:
        nbytes = spec["out"] * spec["in"] * 8
        weights, off = blob[off:off + nbytes], off + nbytes
        bias = None
        if spec["has_bias"]:
            bias, off = blob[off:off + spec["out"] * 8], off + spec["out"] * 8
        params.append((weights, bias))
    if off != len(blob):
        raise ValueError(f"{path}: payload is {len(blob) - 12 - hlen} bytes, "
                         f"the header describes {off - 12 - hlen}")
    return version, header, params


def compare(old_path, new_path):
    """One report line for the pair; raises ValueError on any difference."""
    old_version, old_header, old_params = parse(old_path)
    new_version, new_header, new_params = parse(new_path)
    for key in COMPARED:
        if old_header.get(key) != new_header.get(key):
            raise ValueError(f"{new_path}: header {key!r} differs")
    for i, (old, new) in enumerate(zip(old_params, new_params)):
        for name, a, b in (("weights", old[0], new[0]), ("bias", old[1], new[1])):
            if a != b:
                raise ValueError(f"{new_path}: layer {i} {name} differ")
    removed = sorted(set(old_header) - set(new_header))
    added = sorted(set(new_header) - set(old_header))
    return (f"version {old_version} -> {new_version}, header keys removed "
            f"{removed}, added {added}; dimensions, layers, metrics, weights "
            f"and biases equal")


def checkpoints(root):
    """Relative paths of every checkpoint.rmtk under ``root``, sorted."""
    found = []
    for dirpath, _, files in os.walk(root):
        if "checkpoint.rmtk" in files:
            found.append(os.path.relpath(os.path.join(dirpath, "checkpoint.rmtk"), root))
    return sorted(found)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="directory of the reference outputs")
    parser.add_argument("new", help="directory of the outputs to check")
    args = parser.parse_args()
    old, new = checkpoints(args.old), checkpoints(args.new)
    if old != new:
        print(f"checkpoint sets differ: only in {args.old}: "
              f"{sorted(set(old) - set(new))}, only in {args.new}: "
              f"{sorted(set(new) - set(old))}", file=sys.stderr)
        return 1
    if not old:
        print(f"no checkpoint.rmtk under {args.old}", file=sys.stderr)
        return 1
    for rel in old:
        try:
            line = compare(os.path.join(args.old, rel), os.path.join(args.new, rel))
        except (ValueError, KeyError, struct.error) as e:
            print(f"{rel}: {e}", file=sys.stderr)
            return 1
        print(f"{rel}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
