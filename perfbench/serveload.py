"""Seeded inputs for the ``serve`` workload, and its delivery oracle.

The archive is a JSONL feed in the format ``FeedRecord.to_json``
writes.  Its traffic follows the program's own calibration:

* each first sighting picks its TLD in proportion to the TLD's
  CT-detected registrations, ``total_nrd * ct_coverage`` of
  ``calibration.build_targets`` (Table 1 of the paper, its "Others"
  row spread over the filler TLDs as the world build spreads it);
* a first sighting is a transient with the TLD's calibrated share,
  ``total_transient_observed`` over its CT-detected registrations
  (Table 2 over Table 1, about 1 %), and otherwise an ordinary
  registration.  Its actor profile is drawn from the program's
  ``FAST_MALICIOUS_PROFILES`` or ``BENIGN_PROFILES`` mixture, and its
  name from the program's ``NameGenerator`` in that profile's style;
* every record has ``source="ct"``, as ``PublicFeed.publish`` writes.

The program's feed never repeats a domain, so no measured share of
re-observations exists.  One record in eight (:data:`REOBSERVED`) is a
later CT sighting of a domain already in the archive, so that log
compaction has superseded records to drop (about 2.5 k of 20 k).

Subscribers follow ``cli._register_serve_clients``: 30 % firehose,
TLD subsets of one to three TLDs, 15 % CT-only, and tiers in the
shares 30/50/20 % free/standard/premium.  Fifteen points of the CLI's
55 % TLD-subset share go to domain-glob clients, which watch names
beginning like one the archive's generator makes.  The shares are
applied exactly, not drawn, so that the delivery volume depends little
on the seed.

The oracle decides which records each subscriber should receive from
the benchmark's own filter definitions, without ``FilterSpec``.
"""

from __future__ import annotations

import fnmatch
import json
from datetime import datetime, timezone
from typing import Dict, List, Sequence, Tuple

#: 2023-11-01T00:00:00Z, the start of the paper's measurement window
#: (``calibration.MONTHS``: 30 + 31 + 31 days).
WINDOW_START = 1698796800
WINDOW_DAYS = 92
#: Share of records that re-observe a domain already in the archive.
REOBSERVED = 0.125

#: Subscriber mix: (filter kind, share of clients).
CLIENT_MIX = (("firehose", 0.30), ("tlds", 0.40), ("glob", 0.15),
              ("ct_only", 0.15))
TIER_MIX = (("free", 0.3), ("standard", 0.5), ("premium", 0.2))


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


class _Names:
    """First-sighting domains drawn as the calibrated world draws them."""

    def __init__(self, rng) -> None:
        from repro.workload import actors, calibration
        from repro.workload.namegen import NameGenerator
        self.rng = rng
        self.actors = actors
        self.gen = NameGenerator(rng)
        targets = calibration.build_targets(1.0)
        self.tlds = sorted(targets)
        detected = {tld: t.total_nrd * t.ct_coverage
                    for tld, t in targets.items()}
        self.weights = [detected[tld] for tld in self.tlds]
        self.transient = {tld: t.total_transient_observed / detected[tld]
                          for tld, t in targets.items()}

    def draw(self, tld: str = "") -> str:
        rng = self.rng
        tld = tld or rng.choices(self.tlds, self.weights)[0]
        mixture = (self.actors.FAST_MALICIOUS_PROFILES
                   if rng.random() < self.transient[tld]
                   else self.actors.BENIGN_PROFILES)
        profile = self.actors.pick_profile(rng, mixture)
        return str(self.gen.by_style(profile.name_style, tld))


def make_records(seed: int, count: int) -> List[dict]:
    """``count`` feed records, :data:`REOBSERVED` of them re-sightings."""
    from repro.simtime.rng import spawn
    rng = spawn(seed, "perfbench", "serve", "records")
    names = _Names(rng)
    span = WINDOW_DAYS * 86400
    records: List[dict] = []
    first_seen: Dict[str, int] = {}
    while len(records) < count:
        if records and rng.random() < REOBSERVED:
            domain = records[rng.randrange(len(records))]["domain"]
            ts = rng.randint(first_seen[domain] + 1,
                             WINDOW_START + span + 86400)
        else:
            domain = names.draw()
            ts = WINDOW_START + rng.randrange(span)
            first_seen[domain] = ts
        records.append({"domain": domain, "tld": domain.rsplit(".", 1)[1],
                        "seen_at": ts, "seen_at_iso": _iso(ts),
                        "source": "ct"})
    return records


def make_clients(seed: int, count: int) -> List[dict]:
    """``count`` subscriber definitions in the fixed kind/tier mix."""
    from repro.simtime.rng import spawn
    rng = spawn(seed, "perfbench", "serve", "clients")
    names = _Names(rng)

    def spread(mix) -> List[str]:
        out: List[str] = []
        for value, share in mix:
            out.extend([value] * round(share * count))
        out = (out + [mix[0][0]] * count)[:count]
        rng.shuffle(out)
        return out

    kinds, tiers = spread(CLIENT_MIX), spread(TIER_MIX)
    clients = []
    for i, (kind, tier) in enumerate(zip(kinds, tiers)):
        client = {"id": f"client-{i:04d}", "tier": tier, "tlds": [],
                  "sources": [], "glob": None}
        if kind == "tlds":
            client["tlds"] = sorted(rng.sample(names.tlds,
                                               rng.randint(1, 3)))
        elif kind == "glob":
            client["glob"] = names.draw("com")[:4] + "*"
        elif kind == "ct_only":
            client["sources"] = ["ct"]
        clients.append(client)
    return clients


def write_inputs(seed: int, records: int, clients: int,
                 archive_path, clients_path) -> None:
    with open(archive_path, "w", encoding="utf-8") as handle:
        for record in make_records(seed, records):
            handle.write(json.dumps(record, separators=(",", ":"),
                                    sort_keys=True) + "\n")
    with open(clients_path, "w", encoding="utf-8") as handle:
        json.dump(make_clients(seed, clients), handle)


# -- oracle --------------------------------------------------------------------


def wants(client: dict, record) -> bool:
    """Does ``client``'s filter accept ``record`` (any object with
    ``domain``, ``tld`` and ``source`` attributes)?"""
    if client["tlds"] and record.tld not in client["tlds"]:
        return False
    if client["sources"] and record.source not in client["sources"]:
        return False
    if client["glob"] and not fnmatch.fnmatchcase(record.domain,
                                                  client["glob"]):
        return False
    return True


def expected_deliveries(clients: Sequence[dict],
                        ordered: Sequence) -> Dict[str, List[int]]:
    """Client id -> indices into ``ordered`` (ingest order) it should
    receive, in delivery order."""
    return {client["id"]: [i for i, record in enumerate(ordered)
                           if wants(client, record)]
            for client in clients}


def score(expected: Sequence[int], delivered: Sequence[int]) -> Tuple[int, int, int]:
    """``(matched, missing, spurious)`` of one client's deliveries.

    A delivery matches when it is expected and comes after the previous
    match, so order is checked too.  Missing deliveries cover
    queue-full drops and evictions; spurious ones are deliveries the
    filter rejects, duplicates and out-of-order records.
    """
    position = {item: k for k, item in enumerate(expected)}
    matched, last = 0, -1
    for item in delivered:
        k = position.get(item)
        if k is not None and k > last:
            matched += 1
            last = k
    return matched, len(expected) - matched, len(delivered) - matched
