#!/usr/bin/env python3
"""Serve the public NRD feed to filtered subscribers.

The paper's open feed is only useful if many consumers can tail it.
This example attaches a :class:`repro.serve.FeedServer` to the
pipeline's broker, pumps the published feed into it after the run, then
plays three archetypal consumers against it:

* a brand-protection team watching ``*shop*`` names across all TLDs,
* a ccTLD researcher following only ``.nl``,
* a free-tier hobbyist on the full firehose (and its rate limit).

Run:  python examples/feed_server.py
"""

from collections import Counter

from repro import ScenarioConfig, build_world
from repro.core.pipeline import DarkDNSPipeline
from repro.serve import FeedServer, FeedServerConfig, FilterSpec


def main() -> None:
    world = build_world(ScenarioConfig(seed=8, scale=1 / 2000))

    server = FeedServer(broker=world.broker,
                        config=FeedServerConfig(shards=4,
                                                max_queue_depth=4096))
    server.subscribe("brand-watch", FilterSpec(domain_glob="*shop*"),
                     tier="premium")
    server.subscribe("nl-research", "tld=nl", tier="standard")
    server.subscribe("hobbyist", None, tier="free")

    DarkDNSPipeline(world).run()
    server.pump()
    print(f"pipeline published {server.metrics.published.value:,} feed "
          f"records to {server.client_count} subscribers")

    now = world.window.end
    brand = server.poll("brand-watch", now, max_records=10_000)
    print(f"\nbrand-watch ({len(brand):,} *shop* hits), first five:")
    for record in brand[:5]:
        print(f"  {record.domain:<30} .{record.tld}")

    nl = server.poll("nl-research", now, max_records=10_000)
    daily = Counter(r.seen_at // 86400 for r in nl)
    print(f"\nnl-research: {len(nl):,} .nl records over "
          f"{len(daily)} days")

    # The free tier pays for the firehose with its token bucket: the
    # first poll spends the burst, the rest trickles out.
    first = server.poll("hobbyist", now, max_records=10_000)
    second = server.poll("hobbyist", now, max_records=10_000)
    later = server.poll("hobbyist", now + 60, max_records=10_000)
    print(f"\nhobbyist firehose: burst {len(first)}, immediately after "
          f"{len(second)}, one minute later {len(later)} "
          f"(pending {server.fanout.pending('hobbyist'):,})")

    snap = server.snapshot()
    print(f"\nserver: {snap['published']:,} published, "
          f"{snap['delivered']:,} delivered, "
          f"{snap['dropped_queue_full']:,} dropped on full queues, "
          f"log of {snap['log']['segments']} segments")


if __name__ == "__main__":
    main()
