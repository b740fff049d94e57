"""Deterministic, named random streams.

Every stochastic component of the simulation draws from a *named child
stream* derived from one master seed.  Two properties matter:

* **Reproducibility** — the same master seed always produces the same
  scenario, pipeline behaviour, and analysis output.
* **Isolation** — adding draws to one component never perturbs another,
  because streams are derived from stable (seed, name) pairs rather than
  from a shared sequential generator.

Streams are ordinary :class:`random.Random` instances seeded from
BLAKE2b of the (master seed, path) pair, plus a handful of distribution
helpers the workload models share.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect as _bisect
from itertools import accumulate as _accumulate
from typing import Dict, Optional, Sequence, Tuple


def derive_seed(master: int, *path: str) -> int:
    """Derive a 64-bit child seed from a master seed and a name path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode("ascii"))
    for part in path:
        h.update(b"\x00")
        h.update(part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


class RngStream(random.Random):
    """A named child stream of a master seed.

    Subclasses :class:`random.Random`, adding the distribution helpers
    used throughout the workload models and the ability to spawn further
    children (``stream.child("rdap")``).
    """

    def __init__(self, master: int, *path: str) -> None:
        self._master = int(master)
        self._path: Tuple[str, ...] = tuple(path)
        super().__init__(derive_seed(self._master, *self._path))

    @property
    def path(self) -> Tuple[str, ...]:
        return self._path

    def child(self, *path: str) -> "RngStream":
        """Derive a further child stream; draws are independent."""
        return RngStream(self._master, *(self._path + path))

    # -- distribution helpers ------------------------------------------------

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.random() < p

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (mean > 0)."""
        return self.expovariate(1.0 / mean)

    def lognormal_from_median(self, median: float, sigma: float) -> float:
        """Lognormal variate parameterised by its median and log-sd."""
        return self.lognormvariate(math.log(median), sigma)

    def truncated(self, draw, low: float, high: float, max_tries: int = 64) -> float:
        """Rejection-sample ``draw()`` into ``[low, high]``, clamping as fallback."""
        for _ in range(max_tries):
            value = draw()
            if low <= value <= high:
                return value
        return min(max(draw(), low), high)

    def weighted_choice(self, items: Sequence, weights: Sequence[float]):
        """Pick one item by weight (weights need not be normalised).

        Draw-identical to ``random.choices(items, weights=weights, k=1)``
        — one ``random()`` call resolved against the cumulative weights —
        without re-listing the inputs.  Callers that pick repeatedly from
        the same distribution should hoist a :class:`WeightedSampler`.
        """
        cum = list(_accumulate(weights))
        if len(cum) != len(items):
            raise ValueError(
                "The number of weights does not match the population")
        total = cum[-1] + 0.0
        if total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not math.isfinite(total):
            raise ValueError("Total of weights must be finite")
        return items[_bisect(cum, self.random() * total, 0, len(cum) - 1)]

    def poisson(self, lam: float) -> int:
        """Poisson variate.

        Knuth's method for small lambda; normal approximation above 30
        (adequate for arrival counts, and dependency-free).
        """
        if lam <= 0.0:
            return 0
        if lam < 30.0:
            threshold = math.exp(-lam)
            k, p = 0, 1.0
            while True:
                p *= self.random()
                if p <= threshold:
                    return k
                k += 1
        value = self.gauss(lam, math.sqrt(lam))
        return max(0, int(round(value)))

    def zipf_rank(self, n: int, alpha: float = 1.0) -> int:
        """Draw a 0-based rank from a Zipf(alpha) distribution over n items."""
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        target = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target <= acc:
                return i
        return n - 1


class WeightedSampler:
    """Reusable weighted sampler with precomputed cumulative weights.

    ``pick(rng)`` consumes exactly one ``rng.random()`` draw and returns
    the same item ``random.choices(items, weights=weights, k=1)[0]``
    would have returned from that draw — so swapping a per-call
    ``weighted_choice`` for a hoisted sampler never perturbs a stream.
    The cumulative array, the float total, and the bisect bounds are all
    precomputed once, which is what makes mixture picks cheap in the
    world-generation hot loop.
    """

    __slots__ = ("items", "_cum", "_total", "_hi")

    def __init__(self, items: Sequence, weights: Sequence[float]) -> None:
        self.items = list(items)
        if len(self.items) != len(weights):
            raise ValueError("items and weights must have the same length")
        self._cum = list(_accumulate(weights))
        if not self._cum:
            raise ValueError("sampler needs at least one item")
        self._total = self._cum[-1] + 0.0
        if self._total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not math.isfinite(self._total):
            raise ValueError("Total of weights must be finite")
        self._hi = len(self._cum) - 1

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[object, float]]) -> "WeightedSampler":
        return cls([item for item, _ in pairs], [w for _, w in pairs])

    def pick(self, rng: random.Random):
        """One weighted draw (bit-identical to ``random.choices``)."""
        return self.items[_bisect(self._cum, rng.random() * self._total,
                                  0, self._hi)]


class StreamBank:
    """Factory handing out named :class:`RngStream` objects from one seed.

    The bank memoises streams so that repeated lookups of the same name
    return the *same* stream object (its internal state advances across
    uses, which is what callers expect of "the scenario's RDAP stream").
    """

    def __init__(self, master: int) -> None:
        self.master = int(master)
        self._streams: dict = {}

    def stream(self, *path: str) -> RngStream:
        key = tuple(path)
        found = self._streams.get(key)
        if found is None:
            found = RngStream(self.master, *key)
            self._streams[key] = found
        return found

    def fresh(self, *path: str) -> RngStream:
        """A non-memoised stream (for callers that reset per item)."""
        return RngStream(self.master, *path)


#: Hashers pre-fed with ``salt + \x00`` — salts come from a small fixed
#: vocabulary (topic names, decision tags), so caching them turns every
#: hash into one copy + one update instead of three updates.
_SALTED_HASHERS: Dict[str, object] = {}
_SALTED_HASHERS_MAX = 4096

#: Bounded (text, salt) → value memo.  Hot consumers (broker partition
#: routing, zone-tick phases, NS assignment) re-hash the same keys many
#: times per run; the memo is cleared wholesale when full so the bound
#: holds without per-hit bookkeeping.
_HASH_MEMO: Dict[Tuple[str, str], float] = {}
_HASH_MEMO_MAX = 1 << 18


def _salted_hasher(salt: str):
    hasher = _SALTED_HASHERS.get(salt)
    if hasher is None:
        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(salt.encode("utf-8"))
        hasher.update(b"\x00")
        if len(_SALTED_HASHERS) < _SALTED_HASHERS_MAX:
            _SALTED_HASHERS[salt] = hasher
    return hasher


def stable_hash01(text: str, salt: str = "") -> float:
    """Map a string to a deterministic float in [0, 1).

    Used for per-domain decisions that must be stable regardless of the
    order in which domains are processed (e.g. which worker monitors a
    domain, whether a passive-DNS sensor sees its queries).
    """
    key = (text, salt)
    value = _HASH_MEMO.get(key)
    if value is None:
        h = _salted_hasher(salt).copy()
        h.update(text.encode("utf-8"))
        value = int.from_bytes(h.digest(), "big") / 18446744073709551616.0
        if len(_HASH_MEMO) >= _HASH_MEMO_MAX:
            _HASH_MEMO.clear()
        _HASH_MEMO[key] = value
    return value


def stable_bucket(text: str, buckets: int, salt: str = "") -> int:
    """Deterministically map a string into one of ``buckets`` bins."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    return int(stable_hash01(text, salt) * buckets) % buckets


def spawn(master: int, *path: str) -> RngStream:
    """Convenience: one-off child stream without a :class:`StreamBank`."""
    return RngStream(master, *path)


def optional_stream(stream: Optional[RngStream], master: int, *path: str) -> RngStream:
    """Return ``stream`` if given, else derive one from ``master``/``path``."""
    return stream if stream is not None else RngStream(master, *path)
