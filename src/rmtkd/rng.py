"""Seeded randomness.

All randomness in the package flows from a single 64-bit seed through two
primitives:

* ``make_rng(seed)`` builds a counter-based generator (Philox), so the same
  seed gives the same stream on every run.
* ``derive_seed(seed, tag)`` hashes the root seed together with a component
  tag, giving each consumer (task generation, weight init, shuffling, ...)
  an independent, individually re-derivable stream.

Gaussian variates are NumPy's ``Generator.standard_normal`` (a ziggurat) on
that stream.  The same seed gives the same bytes on the same NumPy and BLAS
build and CPU; NumPy does not promise the same stream across its versions.
"""

import hashlib

import numpy as np


def make_rng(seed):
    """Return a numpy Generator over Philox seeded with ``seed``."""
    return np.random.Generator(np.random.Philox(int(seed) & (2**64 - 1)))


def derive_seed(seed, tag):
    """Derive a sub-seed for the component named ``tag``.

    blake2b over the root seed (8 little-endian bytes) and the UTF-8 tag,
    truncated to 64 bits.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(str(tag).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def normal(rng, size, std=1.0):
    """An array of shape ``size`` of N(0, std^2) variates: the generator's
    own ``standard_normal``, scaled in place, so its memory is its output."""
    out = rng.standard_normal(size)
    out *= std
    return out
