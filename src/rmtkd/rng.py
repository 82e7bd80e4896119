"""Seeded randomness.

All randomness in the package flows from a single 64-bit seed through two
primitives:

* ``make_rng(seed)`` builds a counter-based generator (Philox) so that streams
  are reproducible bit-for-bit across platforms and runs.
* ``derive_seed(seed, tag)`` hashes the root seed together with a component
  tag, giving each consumer (task generation, weight init, shuffling, ...)
  an independent, individually re-derivable stream.

Gaussian variates are produced with the polar method on top of the
generator's uniforms rather than the generator's own normal routine, so the
exact draw sequence is pinned by this module and not by the numpy version.
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


CHUNK = 2**16  # pairs per slice of a round's uniforms in normal()


def normal(rng, size, std=1.0):
    """An array of shape ``size`` of N(0, std^2) variates via the
    (vectorized) polar method.

    Draws pairs (u, v) uniform on [-1, 1]^2, keeps those inside the unit
    disc, and maps each accepted pair to two independent N(0, 1) values.
    Rejected pairs are replaced by fresh draws until the requested count is
    met, keeping the stream deterministic per seed.

    Each round draws all its u and then all its v, and then transforms the
    pairs ``CHUNK`` at a time, so the temporaries stay small however many
    values are asked for.
    """
    n = int(np.prod(size))
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        m = max(8, int((n - filled) * 0.7) + 4)  # ~pi/4 acceptance, two values per pair
        u_all = rng.uniform(-1.0, 1.0, size=m)
        v_all = rng.uniform(-1.0, 1.0, size=m)
        for start in range(0, m, CHUNK):
            u = u_all[start:start + CHUNK]
            v = v_all[start:start + CHUNK]
            s = u * u
            s += v * v
            ok = s > 0.0
            ok &= s < 1.0
            u = u[ok]
            v = v[ok]
            s = s[ok]
            f = np.log(s)  # f = sqrt(-2 log(s) / s), in place
            f *= -2.0
            f /= s
            np.sqrt(f, out=f)
            # the pairs (u f, v f) fill out in order, as many values as needed
            take = min(2 * len(f), n - filled)
            dst = out[filled:filled + take]
            np.multiply(u[:(take + 1) // 2], f[:(take + 1) // 2], out=dst[0::2])
            np.multiply(v[:take // 2], f[:take // 2], out=dst[1::2])
            filled += take
            if filled == n:
                break
    out *= std
    return out.reshape(size)
