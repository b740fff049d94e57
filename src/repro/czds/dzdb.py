"""DZDB: the historical zone database (CAIDA's DNS Zone Database).

The paper cross-references transient candidates whose RDAP lookups
failed against DZDB's historical zone collection and finds ≈97 % were
registered in the past — the smoking gun for DV-token-reuse ghost
certificates (§4.2).  This module models that longitudinal collection:
per-domain first/last-seen dates accumulated from years of zone files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from repro.dnscore.interned import Name, intern_name
from repro.errors import ConfigError
from repro.simtime.clock import DAY, isoformat


@dataclass(frozen=True)
class HistoricalRecord:
    """One domain's presence interval in the historical zone collection."""

    domain: str
    first_seen: int
    last_seen: int

    def __post_init__(self) -> None:
        if self.last_seen < self.first_seen:
            raise ConfigError(f"{self.domain}: last_seen before first_seen")

    @property
    def span_days(self) -> int:
        return (self.last_seen - self.first_seen) // DAY


class DZDB:
    """Append-only historical zone presence index."""

    def __init__(self) -> None:
        self._records: Dict[str, HistoricalRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain: str) -> bool:
        if type(domain) is not Name:
            domain = intern_name(domain)
        return domain in self._records

    def observe(self, domain: str, seen_at: int) -> None:
        """Record a zone-file sighting; widens the presence interval."""
        norm = domain if type(domain) is Name else intern_name(domain)
        found = self._records.get(norm)
        if found is None:
            self._records[norm] = HistoricalRecord(norm, seen_at, seen_at)
        else:
            self._records[norm] = HistoricalRecord(
                norm, min(found.first_seen, seen_at), max(found.last_seen, seen_at))

    def add_interval(self, domain: str, first_seen: int, last_seen: int) -> None:
        """Bulk-load a known presence interval (scenario seeding)."""
        self.observe(domain, first_seen)
        self.observe(domain, last_seen)

    def lookup(self, domain: str) -> Optional[HistoricalRecord]:
        if type(domain) is not Name:
            domain = intern_name(domain)
        return self._records.get(domain)

    def registered_before(self, domain: str, ts: int) -> bool:
        """Was the domain ever seen in a zone file before ``ts``?

        This is the §4.2 check: 97 % of RDAP-failing transient
        candidates return True.
        """
        record = self.lookup(domain)
        return record is not None and record.first_seen < ts

    def coverage_of(self, domains: Iterable[str], before_ts: int) -> float:
        """Fraction of ``domains`` with pre-``before_ts`` zone history."""
        domains = list(domains)
        if not domains:
            return 0.0
        hits = sum(1 for d in domains if self.registered_before(d, before_ts))
        return hits / len(domains)

    def records(self) -> Iterator[HistoricalRecord]:
        return iter(self._records.values())
