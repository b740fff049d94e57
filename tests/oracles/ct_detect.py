"""Per-event CT detection: the reference for ``CTDetector.run``.

:func:`process_event` handles one Certstream message at a time with no
inlining, updating the detector's counters and seen-set exactly as the
bulk :meth:`repro.core.ctdetect.CTDetector.run` drain must.
"""

from __future__ import annotations

from typing import List

from repro.bus.broker import TOPIC_CANDIDATES
from repro.core.ctdetect import CTDetector
from repro.core.records import Candidate
from repro.ct.certstream import CertstreamEvent
from repro.dnscore.interned import Name


def process_event(detector: CTDetector,
                  event: CertstreamEvent) -> List[Candidate]:
    """Extract zero or more *new* candidates from one feed message."""
    stats = detector.stats
    stats.events += 1
    out: List[Candidate] = []
    registrables: List[Name] = []
    psl = detector.psl
    registrable_or_none = psl.registrable_or_none
    for raw in event.all_names_raw:
        stats.names_seen += 1
        if type(raw) is Name:
            registrable = raw.registrable(psl)
        else:
            registrable = registrable_or_none(raw)
        if registrable is None:
            stats.psl_failures += 1
            continue
        registrables.append(registrable)
    for domain in dict.fromkeys(registrables):
        tld = domain.tld
        if tld not in detector.known_tlds:
            stats.unknown_tld += 1
            continue
        if domain in detector._seen:
            stats.duplicates += 1
            continue
        if detector.archive.covers(tld) and \
                detector.archive.in_latest_published(domain, event.seen_at):
            stats.filtered_in_zone += 1
            detector._seen.add(domain)  # known-registered; skip future certs
            continue
        candidate = Candidate(
            domain=domain, tld=tld, ct_seen_at=event.seen_at,
            cert_serial=event.certificate.serial,
            issuer=event.certificate.issuer,
            log_id=event.log_id,
            reused_validation=event.certificate.reused_validation)
        detector._seen.add(domain)
        stats.candidates += 1
        out.append(candidate)
        if detector.broker is not None:
            detector.broker.produce(TOPIC_CANDIDATES, domain, candidate,
                                    event.seen_at)
    return out
