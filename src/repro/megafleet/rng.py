"""Counter-based, device-keyed random streams for the megafleet engine.

A 10^6-device simulation cannot afford one :class:`numpy.random.Generator`
per device, and a single sequential stream would make every outcome
depend on the order devices happen to be processed in — which is exactly
what sharding changes.  Instead, every draw here is a *pure function* of

    (fleet seed, stream tag, device key, per-device counter)

hashed through splitmix64's finalizer on ``uint64`` arrays.  A device's
key is derived from its cohort's name and its ordinal *within* that
cohort, never from its global position, so:

* sharding the device range differently cannot change any draw;
* reordering cohorts in the config cannot change any draw;
* device ``k``'s third outage is the same number whether it is computed
  on day 5 or day 500, serially or on worker 7.

Distributions are inverted from the uniforms in closed form (geometric
and exponential inversion, Erlang as a sum of exponentials), so no
stateful generator is ever consulted during the simulation proper.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import ConfigError

__all__ = [
    "TAG_CRASH",
    "TAG_OUTAGE",
    "TAG_RATE",
    "device_keys",
    "erlang",
    "geometric",
    "uniforms",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)

#: stream tags — distinct draws a device makes must use distinct tags.
TAG_RATE = _U64(0xA11CE)
TAG_CRASH = _U64(0xC7A54)
TAG_OUTAGE = _U64(0x0D0A6E)


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function on uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):  # modular arithmetic is the point
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def _chain(h, k) -> np.ndarray:
    """Fold one more key component into a hash state (broadcasts)."""
    h = np.asarray(h, dtype=_U64)
    k = np.asarray(k, dtype=_U64)
    with np.errstate(over="ignore"):
        return _finalize((h + _GOLDEN) ^ (k * _MIX1 + _GOLDEN))


def device_keys(seed: int, cohort_name: str, n: int, *, start: int = 0) -> np.ndarray:
    """Stable identity keys for cohort devices ``start .. start + n - 1``.

    Keyed by ``(seed, sha256(cohort name), ordinal in cohort)`` — global
    device position never enters, which is what makes aggregate results
    invariant under cohort reordering and shard layout.  A shard asks
    for just its ordinal range and gets the same keys a whole-cohort
    call would have produced at those positions.
    """
    name_bits = int.from_bytes(
        hashlib.sha256(cohort_name.encode("utf-8")).digest()[:8], "big"
    )
    ordinals = np.arange(start, start + n, dtype=_U64)
    return _chain(_chain(_U64(seed & 0xFFFFFFFFFFFFFFFF), _U64(name_bits)), ordinals)


def uniforms(keys: np.ndarray, tag: np.uint64, counter) -> np.ndarray:
    """Uniform [0, 1) floats for ``(key, tag, counter)`` triples.

    ``counter`` broadcasts against ``keys`` (scalar day, or one
    per-device counter array such as the crash index).
    """
    bits = _chain(_chain(keys, tag), counter)
    return (bits >> _U64(11)).astype(np.float64) * _INV_2_53


def geometric(u: np.ndarray, p) -> np.ndarray:
    """Geometric (support 1, 2, ...) by inversion of uniforms ``u``.

    Matches ``numpy``'s parameterization: number of Bernoulli(p) trials
    up to and including the first success.  ``p`` broadcasts; entries
    with ``p >= 1`` are exactly 1, entries with ``p <= 0`` come back as
    0 (callers mask those — "never happens").
    """
    u = np.asarray(u, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(np.broadcast(u, p).shape, dtype=np.int64)
    sure = p >= 1.0
    live = (p > 0.0) & ~sure
    out[sure] = 1
    if np.any(live):
        u_l, p_l = np.broadcast_to(u, out.shape)[live], np.broadcast_to(p, out.shape)[live]
        out[live] = 1 + np.floor(np.log1p(-u_l) / np.log1p(-p_l)).astype(np.int64)
    return out


def erlang(keys: np.ndarray, tag: np.uint64, shape: int, scale) -> np.ndarray:
    """Erlang(shape, scale) draws — a Gamma with integer shape.

    The sum of ``shape`` exponentials, each inverted from its own
    counter-keyed uniform, so the draw stays a pure function of the
    device key.  This is how per-device traffic rates get their
    Gamma-style heterogeneity without a stateful generator.
    """
    if shape < 1:
        raise ConfigError("erlang shape must be a positive integer")
    total = np.zeros(keys.shape, dtype=np.float64)
    for j in range(shape):
        total -= np.log1p(-uniforms(keys, tag, _U64(j)))
    return total * np.asarray(scale, dtype=np.float64)
