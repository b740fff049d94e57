"""Client subscriptions: filters compiled to fast predicates.

Each feed client subscribes with a :class:`FilterSpec` — which TLDs,
which sources, an optional domain glob, and an optional
since-timestamp.  Matching every record against every subscriber's
filter is the fan-out hot path, so the manager does two things the
naive loop does not:

* specs are **compiled once** into closures over frozen sets (no
  per-record attribute chasing or regex recompilation); domain globs
  become a single compiled :mod:`re` pattern;
* subscriptions are **indexed by TLD**: a record for ``.xyz`` is only
  tested against subscribers that asked for ``.xyz`` (plus the
  wildcard subscribers), which keeps matching cost proportional to the
  interested audience rather than the whole client population.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.core.feed import FeedRecord
from repro.errors import ServeError, UnknownClientError

Predicate = Callable[[FeedRecord], bool]

#: Default client tiers (the rate limiter's DEFAULT_TIERS, see
#: ratelimit.py); a manager may be built with a custom tier set.
TIERS = ("free", "standard", "premium")


@dataclass(frozen=True)
class FilterSpec:
    """What a client wants from the feed.

    Empty/None fields mean "no constraint".  ``domain_glob`` uses shell
    wildcards (``*shop*``, ``pay-*``); ``since`` drops records observed
    before the given simulation timestamp.
    """

    tlds: FrozenSet[str] = frozenset()
    sources: FrozenSet[str] = frozenset()
    domain_glob: Optional[str] = None
    since: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "FilterSpec":
        """Parse a CLI-style spec: ``tld=com,xyz;glob=*shop*;since=0``.

        Fields are ``;``-separated ``key=value`` pairs; ``tld`` and
        ``source`` take ``,``-separated lists.  An empty string means
        match-everything.
        """
        tlds: FrozenSet[str] = frozenset()
        sources: FrozenSet[str] = frozenset()
        glob: Optional[str] = None
        since: Optional[int] = None
        for part in filter(None, (p.strip() for p in text.split(";"))):
            if "=" not in part:
                raise ServeError(f"bad filter field {part!r} (want key=value)")
            key, value = (s.strip() for s in part.split("=", 1))
            if key in ("tld", "tlds"):
                tlds = frozenset(t.strip().lstrip(".").lower()
                                 for t in value.split(",") if t.strip())
            elif key in ("source", "sources"):
                sources = frozenset(s.strip().lower()
                                    for s in value.split(",") if s.strip())
            elif key == "glob":
                glob = value
            elif key == "since":
                try:
                    since = int(value)
                except ValueError:
                    raise ServeError(
                        f"since= wants an integer timestamp, "
                        f"got {value!r}") from None
            else:
                raise ServeError(f"unknown filter field {key!r}")
        return cls(tlds=tlds, sources=sources, domain_glob=glob, since=since)

    def compile(self, skip_tld: bool = False) -> Predicate:
        """Build the fastest predicate this spec allows.

        Constraints that are absent contribute no per-record work; a
        fully empty spec compiles to :func:`match_all`.  ``skip_tld``
        leaves the TLD check out, for records the TLD index routed.
        """
        checks: List[Predicate] = []
        if self.tlds and not skip_tld:
            tlds = self.tlds
            checks.append(lambda r: r.tld in tlds)
        if self.sources:
            sources = self.sources
            checks.append(lambda r: r.source in sources)
        if self.domain_glob:
            pattern = re.compile(fnmatch.translate(self.domain_glob))
            checks.append(lambda r: pattern.match(r.domain) is not None)
        if self.since is not None:
            since = self.since
            checks.append(lambda r: r.seen_at >= since)
        if not checks:
            return match_all
        if len(checks) == 1:
            return checks[0]
        return lambda r: all(check(r) for check in checks)


def match_all(record: FeedRecord) -> bool:
    """The predicate of a spec with no constraint."""
    return True


@dataclass
class Subscription:
    """One registered client: identity, tier, compiled filter."""

    client_id: str
    spec: FilterSpec
    tier: str = "standard"
    predicate: Predicate = field(init=False, repr=False)
    #: The predicate minus the TLD check, or None when that leaves
    #: nothing to test: what a TLD-routed candidate still has to pass.
    residual: Optional[Predicate] = field(init=False, repr=False)
    subscribed_at: int = 0

    def __post_init__(self) -> None:
        self.predicate = self.spec.compile()
        residual = self.spec.compile(skip_tld=True)
        self.residual = None if residual is match_all else residual

    def matches(self, record: FeedRecord) -> bool:
        return self.predicate(record)


class SubscriptionManager:
    """Registry of active subscriptions with a TLD routing index.

    ``allowed_tiers`` defaults to the rate limiter's standard three;
    a server configured with custom tier policies passes its own set.
    """

    def __init__(self,
                 allowed_tiers: Optional[Iterable[str]] = None) -> None:
        self._allowed_tiers = frozenset(
            TIERS if allowed_tiers is None else allowed_tiers)
        self._subs: Dict[str, Subscription] = {}
        #: tld -> subscriptions constrained to that tld.
        self._by_tld: Dict[str, List[Subscription]] = {}
        #: subscriptions with no TLD constraint (match every tld).
        self._wildcard: List[Subscription] = []

    def __len__(self) -> int:
        return len(self._subs)

    def subscribe(self, client_id: str, spec: FilterSpec,
                  tier: str = "standard", now: int = 0) -> Subscription:
        if tier not in self._allowed_tiers:
            raise ServeError(f"unknown tier {tier!r} (choose from "
                             f"{tuple(sorted(self._allowed_tiers))})")
        if client_id in self._subs:
            raise ServeError(f"client {client_id!r} already subscribed")
        sub = Subscription(client_id=client_id, spec=spec, tier=tier,
                           subscribed_at=now)
        self._subs[client_id] = sub
        if spec.tlds:
            for tld in spec.tlds:
                self._by_tld.setdefault(tld, []).append(sub)
        else:
            self._wildcard.append(sub)
        return sub

    def unsubscribe(self, client_id: str) -> Subscription:
        sub = self._subs.pop(client_id, None)
        if sub is None:
            raise UnknownClientError(f"no subscription for {client_id!r}")
        if sub.spec.tlds:
            for tld in sub.spec.tlds:
                subs = self._by_tld[tld]
                subs.remove(sub)
                if not subs:
                    del self._by_tld[tld]
        else:
            self._wildcard.remove(sub)
        return sub

    def match(self, record: FeedRecord) -> List[Subscription]:
        """All subscriptions whose filter accepts the record.

        Only TLD-indexed candidates plus wildcard subscribers are
        tested; result order is deterministic (candidate registration
        order) so deliveries are reproducible.
        """
        out = [sub for sub in self._by_tld.get(record.tld, ())
               if sub.residual is None or sub.residual(record)]
        out += [sub for sub in self._wildcard
                if sub.residual is None or sub.residual(record)]
        return out
