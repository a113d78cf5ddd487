"""Deterministic random sampling and numerically stable vector primitives.

The random number generator is a counter-based SplitMix64: output ``i`` of a
stream is ``mix64(key + (i + 1) * GOLDEN)`` where ``key`` is derived from the
``(seed, stream_id)`` pair. Because each output depends only on the key and
the counter, draws vectorize cleanly and the sequence is identical on every
platform. Distinct stream ids give statistically independent streams, which
is what lets federated clients sample concurrently without sharing state.

Gamma variates use the Marsaglia-Tsang rejection method (with the standard
``alpha < 1`` boost transform); normals use Box-Muller. Both consume the
underlying u64 stream in a deterministic order, so replaying a stream
reproduces byte-identical samples.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy constants, kept as uint64 to avoid silent upcasts
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

_INV_2_53 = 1.0 / (1 << 53)


def _mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer over Python ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, computed in place in ``z``."""
    shifted = z >> _S30
    z ^= shifted
    z *= _NP_MIX1
    np.right_shift(z, _S27, out=shifted)
    z ^= shifted
    z *= _NP_MIX2
    np.right_shift(z, _S31, out=shifted)
    z ^= shifted
    return z


def _bits53(z: np.ndarray) -> np.ndarray:
    """The top 53 bits of each raw u64 output, as doubles (``z`` is shifted in place)."""
    np.right_shift(z, _S11, out=z)
    return z.astype(np.float64)


def _open_unit(bits: np.ndarray) -> np.ndarray:
    """``_bits53`` output turned in place into uniforms in (0, 1]."""
    bits += 1.0
    bits *= _INV_2_53
    return bits


def _box_muller(bits: np.ndarray) -> np.ndarray:
    """``_bits53`` output of ``2 * pairs`` draws turned in place into normals.

    The first half gives u1 in (0, 1], the second u2 in [0, 1); pair k
    yields r cos(theta) at k and r sin(theta) at ``pairs + k``, with
    r = sqrt(-2 log u1) and theta = 2 pi u2.
    """
    pairs = len(bits) // 2
    r, theta = bits[:pairs], bits[pairs:]
    np.log(_open_unit(r), out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _INV_2_53
    theta *= 2.0 * math.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return bits


def _encode_part(part) -> int:
    """Map a derivation-path component to a u64."""
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return _hash_str(part)
    raise InvalidInputError(f"stream path components must be int or str, got {type(part).__name__}")


@functools.lru_cache(maxsize=1024)  # a few names ("dropout", "shuffle", ...) recur in every derivation
def _hash_str(part: str) -> int:
    return int.from_bytes(hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest(), "little")


_golden_steps = np.zeros(0, dtype=np.uint64)  # arange(n) * GOLDEN for the longest n drawn so far
_DRAW_BLOCK = 1 << 14  # uint64 entries per block of a bernoulli_rows draw


_DERIVE_START = _mix64(_GOLDEN)  # every derivation path folds into this


def derive_id(*parts) -> int:
    """Fold derivation-path components into a 64-bit stream id.

    Order-sensitive, so (round, client) and (client, round) derive
    different streams.
    """
    h = _DERIVE_START
    for part in parts:
        h = _mix64(h ^ _encode_part(part))
    return h


class RngStream:
    """Deterministic random stream identified by ``(seed, stream_id)``.

    The stream is stateful (a counter advances as samples are drawn), but
    constructing a new stream with the same ``(seed, stream_id)`` replays
    the exact same sequence. All distribution methods consume the
    underlying u64 outputs in a documented, deterministic order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._key = _mix64(_mix64(self.seed ^ _GOLDEN) ^ self.stream_id)
        self._counter = 0

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def child(self, *parts) -> "RngStream":
        """Derive an independent stream for a sub-task (e.g. round, client)."""
        return RngStream(self.seed, derive_id(self.stream_id, *parts))

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        if n < 0:
            raise InvalidInputError("sample count must be non-negative")
        start = self._counter + 1
        self._counter += n
        z = np.arange(start, start + n, dtype=np.uint64)
        z *= _NP_GOLDEN
        z += np.uint64(self._key)
        return _mix64_array(z)

    def random(self, n: int) -> np.ndarray:
        """Uniform doubles in [0, 1) with 53-bit resolution."""
        return _bits53(self.u64(n)) * _INV_2_53

    @staticmethod
    def bernoulli_rows(streams: list, counts, p: float) -> np.ndarray:
        """Boolean rows, one per stream, as long as the longest count: row k
        starts with ``streams[k].random(counts[k]) < p`` and is False after it.

        Bit for bit, and each stream advances by its own count of draws as in
        ``random``; the draws of all streams run together, in column blocks.
        """
        counts = np.asarray(counts, dtype=np.int64).reshape(len(streams))
        # key + (counter + 1 + j) * GOLDEN, split into a per-stream and a
        # per-draw term; uint64 arithmetic wraps, so the split is exact
        offsets = [(s._key + (s._counter + 1) * _GOLDEN) & _MASK64 for s in streams]
        for s, n in zip(streams, counts.tolist()):
            s._counter += n
        n = int(counts.max(initial=0))
        # a draw m * 2**-53 (m = z >> 11) is below p exactly when m < t = ceil(p * 2**53),
        # that is when z < t << 11; every draw is below a t of 2**53 or more
        t = math.ceil(p * (1 << 53))
        if t >= 1 << 53:
            kept = np.ones((len(streams), n), dtype=bool)
        else:
            global _golden_steps
            if len(_golden_steps) < n:
                _golden_steps = np.arange(n, dtype=np.uint64) * _NP_GOLDEN
            kept = np.empty((len(streams), n), dtype=bool)
            base = np.array(offsets, dtype=np.uint64)[:, None]
            width = max(1, _DRAW_BLOCK // max(1, len(streams)))
            for start in range(0, n, width):
                stop = min(n, start + width)
                z = _mix64_array(base + _golden_steps[start:stop])
                np.less(z, np.uint64(t << 11), out=kept[:, start:stop])
        shortest = int(counts.min(initial=n))
        kept[:, shortest:] &= np.arange(shortest, n) < counts[:, None]  # False past each stream's count
        return kept

    def random_open(self, n: int) -> np.ndarray:
        """Uniform doubles in (0, 1]; safe as a log() argument."""
        return _open_unit(_bits53(self.u64(n)))

    def normal(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Standard normals via Box-Muller: ``random_open(pairs)`` then
        ``random(pairs)`` uniforms, drawn as one block of ``2 * pairs``."""
        if n == 0:
            return np.zeros(0)
        out = _box_muller(_bits53(self.u64(2 * ((n + 1) // 2))))[:n]
        if scale != 1.0:
            out *= scale
        return out

    def _gamma_core_log(self, alpha: float, n: int) -> np.ndarray:
        """log of Gamma(alpha, 1) draws for alpha >= 1 (Marsaglia-Tsang)."""
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        pending = np.arange(n)
        while pending.size:
            # the draws of normal(m) then random_open(m), made as one block
            m = pending.size
            pairs = (m + 1) // 2
            bits = _bits53(self.u64(2 * pairs + m))
            x = _box_muller(bits[: 2 * pairs])[:m]
            u = _open_unit(bits[2 * pairs :])
            v = (1.0 + c * x) ** 3
            ok = v > 0
            # log-space acceptance test; rejected lanes get logv = -inf
            logv = np.where(ok, np.log(np.where(ok, v, 1.0)), -np.inf)
            accept = ok & (np.log(u) < 0.5 * x**2 + d - d * v + d * logv)
            out[pending[accept]] = math.log(d) + logv[accept]
            pending = pending[~accept]
        return out

    def log_gamma(self, alpha: float, n: int) -> np.ndarray:
        """log of Gamma(alpha, 1) draws; exact for arbitrarily small alpha.

        For alpha < 1 uses the boost transform
        ``Gamma(alpha) = Gamma(alpha + 1) * U^(1/alpha)`` in log space, which
        avoids the underflow that makes direct draws collapse to zero.
        """
        if not 0 < alpha < math.inf:  # an infinite or NaN shape would reject every draw forever
            raise InvalidInputError(f"gamma shape must be positive and finite, got {alpha}")
        if alpha >= 1.0:
            return self._gamma_core_log(alpha, n)
        base = self._gamma_core_log(alpha + 1.0, n)
        u = self.random_open(n)
        return base + np.log(u) / alpha

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) via stable key sort."""
        return np.argsort(self.u64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """Sample ``k`` of range(n) uniformly without replacement, sorted."""
        if not 0 <= k <= n:
            raise InvalidInputError(f"cannot choose {k} of {n}")
        return np.sort(self.permutation(n)[:k])


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction; shift-invariant and overflow-proof."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0 or z.shape[1] == 0:
        raise InvalidInputError("softmax_rows expects a non-empty 2-D matrix")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax_rows input contains non-finite entries")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def l2_normalize_rows(m, out=None) -> np.ndarray:
    """Row-wise unit normalization of a 2-D matrix, into ``out`` if given."""
    x = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("matrix contains a zero row")
    return np.divide(x, norms, out=out)


def dirichlet_sample(alpha: float, dim: int, rng: RngStream) -> np.ndarray:
    """One draw from the symmetric Dirichlet(alpha) over ``dim`` components.

    Implemented as normalized per-component Gamma(alpha, 1) draws. The
    normalization runs in log space so that concentrations far below 1
    (where raw gamma draws underflow) still land exactly on the simplex.
    """
    if alpha <= 0:
        raise InvalidInputError(f"dirichlet concentration must be positive, got {alpha}")
    if dim < 1:
        raise InvalidInputError(f"dirichlet dimension must be at least 1, got {dim}")
    if dim == 1:
        rng.log_gamma(alpha, 1)  # consume one draw so replay order is stable
        return np.ones(1)
    lg = rng.log_gamma(alpha, dim)
    w = np.exp(lg - lg.max())
    return w / w.sum()


def multinomial_split(n: int, probs, rng: RngStream) -> np.ndarray:
    """Split ``n`` items into categories by ``n`` categorical draws.

    Returns integer counts summing exactly to ``n``.
    """
    p = np.asarray(probs, dtype=np.float64)
    if n < 0:
        raise InvalidInputError("item count must be non-negative")
    if p.ndim != 1 or p.size == 0:
        raise InvalidInputError("probs must be a non-empty vector")
    if np.any(p < 0):
        raise InvalidInputError("probs contains a negative probability")
    total = p.sum()
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise InvalidInputError(f"probs must sum to 1 within 1e-9, got {total}")
    if n == 0:
        return np.zeros(p.size, dtype=np.int64)
    cum = np.cumsum(p / total)
    cum[-1] = 1.0  # absorb rounding so every u < 1 lands in range
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    return np.bincount(idx, minlength=p.size).astype(np.int64)
