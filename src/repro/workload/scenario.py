"""Scenario builder: from calibrated targets to a populated world.

``build_world(ScenarioConfig(...))`` constructs every substrate the
paper's deployment touched — registries with live provisioning, CAs
logging precerts to CT, the snapshot archive, DZDB history, blocklists,
the NOD feed, and a message broker — populated by three months of
synthetic registration activity whose statistics are calibrated to the
paper's tables.  The DarkDNS pipeline (:mod:`repro.core`) then measures
that world exactly as the paper measured the Internet.
"""

from __future__ import annotations

import gc
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bus.broker import Broker
from repro.ct.ca import CA_PROFILES, CertificateAuthority, ca_index_sampler
from repro.ct.certstream import CertstreamFeed
from repro.ct.ctlog import CTLog
from repro.czds.archive import SnapshotArchive
from repro.czds.dzdb import DZDB
from repro.dnscore.interned import configure_interner
from repro.errors import ConfigError, ValidationError
from repro.intel.blocklist import BlocklistPanel
from repro.intel.labels import GroundTruth
from repro.intel.nod import NODFeed
from repro.obs.progress import build_progress
from repro.obs.spans import span
from repro.registry.lifecycle import DomainLifecycle, RemovalReason
from repro.registry.policy import DEFAULT_POLICIES, policy_for
from repro.registry.registrar import TakedownModel
from repro.registry.registry import Registry, RegistryGroup
from repro.simtime.clock import DAY, HOUR, MINUTE, PAPER_WINDOW, Window, day_floor
from repro.simtime.rng import RngStream, StreamBank, WeightedSampler
from repro.workload import calibration as cal
from repro.workload.actors import (
    ActorProfile,
    BENIGN_PROFILES,
    FAST_MALICIOUS_PROFILES,
    SLOW_MALICIOUS_PROFILES,
    pick_profile,
    profile_sampler,
)
from repro.workload.calibration import CCTLDTargets, TLDTargets, month_window
from repro.workload.campaign import (
    Campaign,
    CertPlan,
    GhostCertPlan,
    NSChangePlan,
    RegistrationPlan,
    plan_campaign,
)
from repro.workload.namegen import (
    NameGenerator,
    month_scoped,
    subdomain_names,
)
from repro.workload.scenarios import (
    MonthPlanContext,
    Scenario,
    get_scenario,
)

#: Snapshot-collection slack past the analysis window (paper §4.2).
TRANSIENT_SLACK = 3 * DAY


@dataclass
class ScenarioConfig:
    """Knobs of a scenario run.

    ``scale`` multiplies every population in the paper's tables; the
    default 1/500 builds a ≈35 k-registration world in a few seconds.
    Benchmarks use 1/200 for tighter statistics.
    """

    seed: int = 7
    scale: float = 1 / 500
    window: Window = PAPER_WINDOW
    #: Restrict to a subset of gTLDs (None: all calibrated TLDs).
    tlds: Optional[Sequence[str]] = None
    include_cctld: bool = True
    cctld: CCTLDTargets = field(default_factory=CCTLDTargets)
    #: Ablation B: disable DV-token ghost certificates.
    ghost_certs: bool = True
    #: Disable held (serverHold) old registrations.
    held_domains: bool = True
    #: Fraction of fast-malicious volume arriving in bulk campaigns.
    campaign_fraction: float = 0.5
    #: Pre-window zone population as a fraction of window NRD volume.
    baseline_fraction: float = 0.03
    #: Scale override for the ccTLD ground-truth population (None:
    #: follow ``scale``).  The §4.4b bench uses 1.0 — the paper's .nl
    #: counts are small in absolute terms.
    cctld_scale: Optional[float] = None
    #: Snapshot cadence for the archive (Ablation A sweeps this).
    snapshot_interval: int = DAY
    ns_change_prob: float = cal.NS_CHANGE_PROB
    lame_prob: float = cal.LAME_PROB
    #: Kept only so callers passing ``parallel=1`` keep working: the
    #: build is serial, and any other value raises ConfigError.
    parallel: int = 1
    #: Registered scenario plugin driving this build (``--scenario``);
    #: None builds the plain calibrated world — byte-identical to
    #: ``"baseline"`` (the identity plugin).  See
    #: :mod:`repro.workload.scenarios` / ``docs/scenarios.md``.
    scenario: Optional[str] = None
    #: Knob overrides for the scenario plugin (``name:knob=value`` CLI
    #: specs land here); unknown knobs fail validation immediately.
    scenario_knobs: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ConfigError("scale must be in (0, 1]")
        if not 0 <= self.campaign_fraction <= 1:
            raise ConfigError("campaign_fraction must be in [0, 1]")
        if self.parallel != 1:
            raise ConfigError(
                f"parallel must be 1 (the world build is serial): "
                f"{self.parallel}")
        if self.scenario is not None:
            # Resolves name + knob names now, so a bad --scenario spec
            # fails before any build work (uniform exit-2 at the CLI).
            get_scenario(self.scenario, self.scenario_knobs)

    def plugin(self) -> Optional[Scenario]:
        """The configured scenario plugin instance (None: plain build)."""
        if self.scenario is None:
            return None
        return get_scenario(self.scenario, self.scenario_knobs)


@dataclass
class World:
    """Everything a pipeline run or analysis needs, fully wired."""

    config: ScenarioConfig
    window: Window
    registries: RegistryGroup
    archive: SnapshotArchive
    dzdb: DZDB
    logs: List[CTLog]
    cas: List[CertificateAuthority]
    certstream: CertstreamFeed
    blocklists: BlocklistPanel
    nod: NODFeed
    broker: Broker
    ground_truth: GroundTruth
    targets: Dict[str, TLDTargets]
    cctld_tld: Optional[str]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def gtlds(self) -> List[str]:
        return sorted(self.targets)

    def domain_exists(self, domain: str, ts: int) -> bool:
        """The CA's existence oracle: does the delegation resolve?"""
        lifecycle = self.registries.find_lifecycle(domain)
        return lifecycle is not None and lifecycle.in_zone_at(ts)


# ---------------------------------------------------------------------------
# Plan generation
# ---------------------------------------------------------------------------

_FAST_TAKEDOWN = TakedownModel()


def _spread_times(rng: RngStream, window: Window, count: int) -> List[int]:
    """Registration instants across a window with a weekly rhythm.

    Weekends carry ≈80 % of weekday volume (registration activity is
    business-driven), and times spread uniformly within the day.
    """
    days = list(window.days())
    if not days:
        days = [window.start]
    weights = []
    for day in days:
        weekday = (day // DAY + 4) % 7  # epoch day 0 was a Thursday
        weights.append(0.8 if weekday in (5, 6) else 1.0)
    day_sampler = WeightedSampler(days, weights)
    times = [day_sampler.pick(rng) + rng.randrange(DAY) for _ in range(count)]
    times.sort()
    return times


def _sample_fast_lifetime(rng: RngStream, median: int) -> int:
    """Fast-takedown delay: the Figure 2 lifetime branch."""
    return int(rng.truncated(
        lambda: rng.lognormal_from_median(median, 0.85),
        low=5 * MINUTE, high=DAY - 30 * MINUTE))


def _sample_slow_removal(rng: RngStream) -> int:
    return int(rng.truncated(
        lambda: rng.lognormal_from_median(12 * DAY, 0.9),
        low=DAY, high=80 * DAY))


def _cert_plan(rng: RngStream, profile: ActorProfile, domain: str,
               early_prob: float) -> Optional[CertPlan]:
    """Early / late / no certificate decision for an ordinary NRD."""
    p_early = min(0.98, early_prob * profile.cert.affinity)
    if rng.bernoulli(p_early):
        delay = profile.cert.sample_delay(rng)
        sans: Tuple[str, ...] = ()
        if rng.bernoulli(profile.san_rich_prob):
            sans = tuple(subdomain_names(rng, domain, rng.randint(1, 4)))
        return CertPlan(delay_after_publish=delay, extra_sans=sans)
    if rng.bernoulli(cal.LATE_CERT_SHARE):
        # Late certificate: arrives after the zone snapshot already
        # lists the domain, so step 1 filters it (it is not a candidate).
        delay = int(rng.uniform(1.5 * DAY, 25 * DAY))
        return CertPlan(delay_after_publish=delay)
    return None


def _decorate_plan(plan: RegistrationPlan, rng: RngStream,
                   config: ScenarioConfig, early_prob: float) -> None:
    """Attach cert/NS-change/lameness decisions to a planned NRD."""
    plan.cert = _cert_plan(rng, plan.profile, plan.domain, early_prob)
    if rng.bernoulli(config.ns_change_prob):
        new_provider = plan.profile.dns_mix.pick(rng)
        if new_provider.name == plan.dns_provider.name:
            new_provider = plan.profile.dns_mix.pick(rng)
        plan.ns_change = NSChangePlan(
            delay_after_publish=int(rng.uniform(1 * HOUR, 20 * HOUR)),
            new_dns_provider=new_provider)
    plan.lame = rng.bernoulli(config.lame_prob)


def _plan_month_for_tld(config: ScenarioConfig, targets: TLDTargets,
                        month: str, bank: StreamBank,
                        namegen: NameGenerator
                        ) -> Tuple[List[RegistrationPlan], List[GhostCertPlan]]:
    rng = bank.stream("gen", targets.tld, month)
    window = month_window(month)
    early_prob = targets.early_cert_prob()
    plans: List[RegistrationPlan] = []

    # Loop-local aliases: one bound-method lookup instead of one per
    # draw.  The inlined ``rng_random() < p`` comparisons replace
    # ``rng.bernoulli(p)`` for calibration constants that are fixed in
    # (0, 1), where both consume exactly one draw.
    rng_random = rng.random
    benign = profile_sampler(BENIGN_PROFILES)
    slow_malicious = profile_sampler(SLOW_MALICIOUS_PROFILES)
    fast_malicious = profile_sampler(FAST_MALICIOUS_PROFILES)

    # --- ordinary zone-NRD volume -------------------------------------------
    n_nrd = targets.monthly_nrd.get(month, 0)
    tld = targets.tld
    for ts in _spread_times(rng, window, n_nrd):
        if rng_random() < cal.DELETED_SHARE_OF_NRD:
            if rng_random() < cal.EARLY_REMOVED_MALICIOUS_SHARE:
                profile = slow_malicious.pick(rng)
                removal = _sample_slow_removal(rng)
            else:
                profile = benign.pick(rng)
                removal = int(rng.uniform(2 * DAY, 30 * DAY))
        else:
            profile = benign.pick(rng)
            removal = None
        plan = RegistrationPlan(
            domain=namegen.by_style(profile.name_style, tld),
            tld=tld, created_at=ts, profile=profile,
            registrar=profile.registrar_mix.pick(rng),
            dns_provider=profile.dns_mix.pick(rng),
            web_provider=profile.web_mix.pick(rng),
            removal_delay=removal)
        _decorate_plan(plan, rng, config, early_prob)
        plans.append(plan)

    # --- fast-takedown (transient-class) volume ---------------------------------
    n_fast = targets.fast_takedown_count(month)
    n_campaign = int(round(n_fast * config.campaign_fraction))
    n_single = n_fast - n_campaign
    fast_plans: List[RegistrationPlan] = []
    campaign_seq = 0
    while n_campaign > 0:
        size = min(n_campaign, rng.randint(4, 16))
        profile = fast_malicious.pick(rng)
        start = window.start + rng.randrange(max(1, window.duration - HOUR))
        campaign = Campaign(
            campaign_id=f"{tld}-{month}-c{campaign_seq}",
            profile=profile, tld=tld, start_at=start, size=size)
        fast_plans.extend(plan_campaign(campaign, namegen, rng))
        n_campaign -= size
        campaign_seq += 1
    for ts in _spread_times(rng, window, n_single):
        profile = fast_malicious.pick(rng)
        fast_plans.append(RegistrationPlan(
            domain=namegen.by_style(profile.name_style, tld),
            tld=tld, created_at=ts, profile=profile,
            registrar=profile.registrar_mix.pick(rng),
            dns_provider=profile.dns_mix.pick(rng),
            web_provider=profile.web_mix.pick(rng)))
    for plan in fast_plans:
        plan.fast_takedown = True
        plan.has_history = rng_random() < cal.FAST_DOMAIN_HISTORY_PROB
        plan.removal_delay = _sample_fast_lifetime(rng, _FAST_TAKEDOWN.fast_median)
        if rng_random() < cal.TRANSIENT_CERT_COVERAGE:
            delay = plan.profile.cert.sample_delay(rng)
            plan.cert = CertPlan(delay_after_publish=delay)
        plan.lame = rng.bernoulli(config.lame_prob)
    plans.extend(fast_plans)

    # --- ghost certificates (DV-token reuse, cause iii) ---------------------------
    ghosts: List[GhostCertPlan] = []
    if config.ghost_certs:
        ghost_gen = month_scoped(rng.child("ghostnames"),
                                 cal.month_index(month), kind="gh")
        for _ in range(targets.ghost_count(month)):
            requested_at = window.start + rng.randrange(window.duration)
            token_age = int(rng.uniform(30 * DAY, 390 * DAY))
            validated_at = requested_at - token_age
            ghosts.append(GhostCertPlan(
                domain=ghost_gen.by_style(
                    rng.choice(["dga", "typosquat"]), targets.tld),
                tld=targets.tld, requested_at=requested_at,
                validated_at=validated_at,
                first_seen=validated_at - int(rng.uniform(0, 60 * DAY)),
                last_seen=validated_at + int(rng.uniform(5 * DAY, 200 * DAY)),
                in_dzdb=rng.bernoulli(0.98)))

    # --- scenario plugin hook ----------------------------------------------------
    # Runs over (tld, month)-scoped streams the base build never
    # touches, so a plugin cannot perturb any other shard's draws, and
    # the "baseline" identity plugin reproduces scenario=None.
    plugin = config.plugin()
    if plugin is not None:
        plugin.transform_month_plan(MonthPlanContext(
            config=config, targets=targets, month=month, window=window,
            rng=bank.stream("scenario", targets.tld, month),
            namegen=month_scoped(bank.stream("scnames", targets.tld, month),
                                 cal.month_index(month), kind="sc"),
            plans=plans, ghosts=ghosts))
    return plans, ghosts


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------

def _execute_registration(plan: RegistrationPlan, registry: Registry,
                          rng: RngStream) -> DomainLifecycle:
    ns_hosts = plan.dns_provider.nameservers_for(plan.domain)
    a_addrs = (plan.web_provider.address_for(plan.domain),)
    aaaa_addrs = ((plan.web_provider.ipv6_for(plan.domain),)
                  if rng.bernoulli(0.7) else ())
    lifecycle = registry.register(
        plan.domain, plan.created_at, plan.registrar.name,
        ns_hosts=ns_hosts, a_addrs=a_addrs, aaaa_addrs=aaaa_addrs,
        dns_provider=plan.dns_provider.name,
        web_provider=plan.web_provider.name,
        is_malicious=plan.profile.is_malicious,
        abuse_kind=plan.profile.abuse_kind,
        actor=plan.profile.name, campaign=plan.campaign_id, lame=plan.lame)
    removed_at = plan.removed_at
    if removed_at is not None:
        was_fast = plan.fast_takedown
        reason = (_FAST_TAKEDOWN.sample_reason(rng, was_fast)
                  if plan.profile.is_malicious
                  else RemovalReason.RIGHT_OF_CANCELLATION)
        registry.schedule_removal(plan.domain, removed_at, reason)
    if plan.ns_change is not None and lifecycle.zone_added_at is not None:
        change_at = lifecycle.zone_added_at + plan.ns_change.delay_after_publish
        if removed_at is None or change_at < removed_at:
            provider = plan.ns_change.new_dns_provider
            registry.change_nameservers(
                plan.domain, change_at,
                provider.nameservers_for(plan.domain),
                dns_provider=provider.name)
    return lifecycle


# ---------------------------------------------------------------------------
# Per-(tld, month) shard population
# ---------------------------------------------------------------------------

#: Builder statistics accumulated during generation.
_STAT_KEYS: Tuple[str, ...] = (
    "registrations", "fast_takedowns", "ghost_certs", "held_domains",
    "cert_requests", "cert_rejections", "baseline",
)

#: Market-share sampler over CA *indices* — one ``random()`` draw per
#: pick, draw-identical to sampling the CA objects.  Shards record the
#: index, so generation never touches a live CA object.
_CA_INDICES = ca_index_sampler()

#: A certificate request gathered during generation:
#: ``(request_at, domain, extra_sans | None, pinned_ca_index | None)``.
CertEvent = Tuple[int, str, Optional[Tuple[str, ...]], Optional[int]]


def _populate_shard(config: ScenarioConfig, tld_targets: TLDTargets,
                    month: str, bank: StreamBank, registry: Registry,
                    dzdb: DZDB,
                    seed_token: Callable[[int, str, int], None],
                    cert_events: List[CertEvent],
                    stats: Dict[str, int]) -> None:
    """Generate one ``(tld, month)`` shard onto the substrates.

    Monthly NRD + fast-takedown plans (with execution against
    ``registry``), the month's ghost-certificate DV tokens and held
    domains, and — in the TLD's *first-month* shard only — the
    pre-window baseline zone population.  All randomness comes from
    ``(tld, month)``-scoped streams of ``bank`` (name generation,
    plan generation, execution, held domains) except the CA picks,
    which draw from the shared ``("capick",)`` stream, so shards must
    run in canonical order (sorted TLDs, months chronological).

    ``seed_token(ca_index, domain, validated_at)`` places a DV token by
    CA index, keeping CA objects out of generation.
    """
    tld = tld_targets.tld
    month_i = cal.month_index(month)

    if month_i == 0:
        # Baseline zone population (pre-window, establishes snapshot 0)
        # rides in the first-month shard; its streams stay TLD-scoped
        # because exactly one shard ever touches them.
        n_base = int(round(tld_targets.total_nrd * config.baseline_fraction))
        base_gen = NameGenerator(bank.stream("names", tld, "base"),
                                 namespace="b-")
        base_rng = bank.stream("gen", tld, "base")
        for _ in range(n_base):
            profile = pick_profile(base_rng, BENIGN_PROFILES)
            created = config.window.start - int(
                base_rng.uniform(5 * DAY, 300 * DAY))
            domain = base_gen.by_style(profile.name_style, tld)
            registry.register(
                domain, created, profile.registrar_mix.pick(base_rng).name,
                ns_hosts=profile.dns_mix.pick(base_rng).nameservers_for(domain),
                a_addrs=("198.18.63.1",), actor=profile.name)
            dzdb.observe(domain, created + DAY)
            stats["baseline"] += 1

    namegen = month_scoped(bank.stream("names", tld, month), month_i)
    exec_rng = bank.stream("exec", tld, month)
    plans, ghosts = _plan_month_for_tld(
        config, tld_targets, month, bank, namegen)
    for plan in plans:
        lifecycle = _execute_registration(plan, registry, exec_rng)
        stats["registrations"] += 1
        if plan.fast_takedown:
            stats["fast_takedowns"] += 1
        if plan.has_history:
            # Re-registered dropped name: it carries zone-file
            # history, which is what DZDB sees for §4.2.
            dropped = plan.created_at - int(
                exec_rng.uniform(60 * DAY, 500 * DAY))
            dzdb.add_interval(
                plan.domain,
                dropped - int(exec_rng.uniform(30 * DAY, 300 * DAY)),
                dropped)
        if plan.cert is not None and lifecycle.zone_added_at is not None:
            request_at = lifecycle.zone_added_at + plan.cert.delay_after_publish
            cert_events.append((request_at, plan.domain,
                                plan.cert.extra_sans or None, None))
    for ghost in ghosts:
        # Scenario-planned ghosts arrive with their CA pinned (drawn
        # from the scenario stream); only calibrated ghosts draw from
        # the shared capick stream, so a plugin never shifts the CA
        # picks of the shards after it.
        ca_index = (ghost.ca_index if ghost.ca_index is not None
                    else _CA_INDICES.pick(bank.stream("capick")))
        seed_token(ca_index, ghost.domain, ghost.validated_at)
        if ghost.in_dzdb:
            dzdb.add_interval(ghost.domain, ghost.first_seen,
                              ghost.last_seen)
        cert_events.append((ghost.requested_at, ghost.domain, None,
                            ca_index))
        stats["ghost_certs"] += 1

    # Held (serverHold) domains: old registrations that went dark
    # before the window but still hold valid DV tokens.  Split by
    # month so every shard's held population draws from its own
    # streams (the counts are per-month in calibration already).
    if config.held_domains:
        held_gen = month_scoped(bank.stream("names", tld, month, "held"),
                                month_i, kind="h")
        held_rng = bank.stream("gen", tld, month, "held")
        for _ in range(tld_targets.held_count(month)):
            profile = pick_profile(held_rng, BENIGN_PROFILES)
            created = config.window.start - int(
                held_rng.uniform(60 * DAY, 350 * DAY))
            domain = held_gen.by_style(profile.name_style, tld)
            provider = profile.dns_mix.pick(held_rng)
            registry.register(
                domain, created, profile.registrar_mix.pick(held_rng).name,
                ns_hosts=provider.nameservers_for(domain),
                a_addrs=("198.18.63.2",), dns_provider=provider.name,
                actor=profile.name)
            hold_at = config.window.start - int(
                held_rng.uniform(5 * DAY, 50 * DAY))
            registry.place_hold(domain, max(hold_at, created + DAY))
            dzdb.add_interval(domain, created + DAY, hold_at)
            ca_index = _CA_INDICES.pick(bank.stream("capick"))
            seed_token(ca_index, domain, max(created + 2 * DAY,
                                             hold_at - 300 * DAY))
            request_at = config.window.start + held_rng.randrange(
                config.window.duration)
            cert_events.append((request_at, domain, None, ca_index))
            stats["held_domains"] += 1


@contextmanager
def _gc_paused():
    """Suspend the cyclic GC while a world is materialised.

    World construction allocates millions of container objects that all
    stay live until the world is returned, so generation-0 collections
    triggered by the allocation count only re-scan a monotonically
    growing heap — ≈25 % of build time for zero reclaimed memory.
    Refcounting still frees temporaries; the caller's GC state is
    restored on exit.

    On a *successful* build the tracked heap is then ``gc.freeze()``-d
    into the permanent generation (see below).  That call is
    process-global: objects the embedding process holds at this moment
    are exempted from future cycle collection too.  Worlds are acyclic
    and refcount-freed, so the engine itself leaks nothing; a host
    that routinely builds worlds *and* relies on collecting large
    cyclic structures created before the build should disable GC
    around :func:`build_world` itself (this pause then becomes a
    no-op, and no freeze happens).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        # Collect *before* pausing: the freeze() below permanently
        # exempts everything currently tracked from collection, so any
        # pre-existing cyclic garbage must be reaped first (the
        # documented collect-then-freeze pattern).  Prior worlds are
        # already frozen, so this pass only scans the small unfrozen
        # residue.
        gc.collect()
        gc.disable()
    completed = False
    try:
        yield
        completed = True
    finally:
        if was_enabled:
            # The freshly materialised world (and the names interned
            # while building it) is live for the rest of the process,
            # but it all sits in generation 0 when collection resumes:
            # the first measurement-phase collections would re-scan
            # millions of permanent objects and dominate step-1 wall
            # time (~3 s at 1/100 scale).  freeze() moves everything
            # tracked into the permanent generation in O(1) — objects
            # are still freed by refcounting; world construction
            # creates no cycles of its own.  A build that *failed*
            # only re-enables collection: its half-built heap is
            # garbage and must stay collectable.
            if completed:
                gc.freeze()
            gc.enable()


def build_world(config: Optional[ScenarioConfig] = None) -> World:
    """Construct and populate a scenario world.

    Args:
        config: scenario knobs (seed, scale, TLD subset, ablation
            toggles); defaults to
            ``ScenarioConfig()`` — the 1/500-scale paper window.

    Returns:
        A fully wired :class:`World`: per-TLD registries populated with
        three months of calibrated registration activity, CT logs fed
        by the scenario's CAs, the snapshot archive, DZDB history,
        blocklists, the NOD feed, and a message broker.

    The build is deterministic in ``config``: :func:`world_fingerprint`
    pins it per seed (the stream layout behind that lives in
    ``docs/determinism.md``).  The cyclic GC is paused while the world
    materialises and the finished heap is frozen; see :func:`_gc_paused`.
    """
    with _gc_paused():
        with span("build.world") as sp:
            try:
                world = _build_world(config)
            finally:
                # The progress gauge's source dies with the build.
                build_progress().clear()
            sp.annotate(sim_sec=world.window.end - world.window.start,
                        registrations=world.stats.get("registrations", 0))
            return world


def _build_world(config: Optional[ScenarioConfig]) -> World:
    config = config if config is not None else ScenarioConfig()
    plugin = config.plugin()
    if plugin is not None:
        # configure() runs once, before anything is derived from the
        # config.
        config = plugin.configure(config)
    bank = StreamBank(config.seed)
    with span("build.calibrate"):
        targets = cal.build_targets(config.scale)
    if config.tlds is not None:
        unknown = set(config.tlds) - set(targets)
        if unknown:
            raise ConfigError(f"unknown TLDs requested: {sorted(unknown)}")
        targets = {t: targets[t] for t in config.tlds}
    if plugin is not None:
        # Target transforms land before any shard runs, so every shard
        # sees the scenario's targets.
        targets = plugin.transform_targets(config, targets)

    # Size the process name interner from the planned world volume so
    # it is scale-aware before the first name materialises: roughly one
    # domain + one www SAN + occasional extra SANs + ghost/held/baseline
    # populations per NRD.  The hint only grows alias bounds — interned
    # names are unbounded by design (no mid-run eviction).
    configure_interner(4 * sum(t.total_nrd for t in targets.values()) + 10_000)

    registries = RegistryGroup(Registry(policy_for(t)) for t in targets)
    cctld_tld: Optional[str] = None
    if config.include_cctld:
        cctld_tld = config.cctld.tld
        registries.add(Registry(policy_for(cctld_tld)))

    logs = [CTLog("argon2024", merge_delay=25),
            CTLog("xenon2024", merge_delay=40),
            CTLog("nimbus2024", merge_delay=60)]

    def exists(domain: str, ts: int) -> bool:
        lifecycle = registries.find_lifecycle(domain)
        return lifecycle is not None and lifecycle.in_zone_at(ts)

    cas = [CertificateAuthority(profile.name, exists,
                                [logs[i % len(logs)]],
                                validation_delay=5 + 5 * i)
           for i, profile in enumerate(CA_PROFILES)]

    def seed_token(ca_index: int, domain: str, validated_at: int) -> None:
        cas[ca_index].seed_token(domain, validated_at)

    dzdb = DZDB()
    stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    # Cert request events gathered first, executed in time order so the
    # CT logs incorporate entries monotonically.  Ghost/held requests pin
    # the CA (by index) holding the cached DV token; ordinary requests
    # pick a CA by market share at issuance time.
    cert_events: List[CertEvent] = []

    # --- gTLD populations -------------------------------------------------------
    # One (tld, month) shard at a time, in canonical order: every stream
    # a shard draws from is (tld, month)-scoped except the shared capick
    # CA-pick stream, whose draws therefore follow this order
    # (docs/determinism.md).  The stats dict is live (bumped per
    # registration), so it is the progress source directly.
    n_shards = len(targets) * len(cal.MONTH_KEYS)
    progress = build_progress()
    progress.set_registrations_source(
        lambda: stats["registrations"] + stats["baseline"]
        + stats["held_domains"])
    shards_done = {"n": 0}
    progress.set_shards_source(lambda: (shards_done["n"], n_shards))
    for tld, tld_targets in sorted(targets.items()):
        registry = registries.get(tld)
        for month in cal.MONTH_KEYS:
            with span("build.populate_shard", tld=tld, month=month) as sp:
                _populate_shard(config, tld_targets, month, bank, registry,
                                dzdb, seed_token, cert_events, stats)
                sp.annotate(nrd=tld_targets.monthly_nrd.get(month, 0))
            shards_done["n"] += 1

    # --- ccTLD population (the §4.4b ground-truth registry) ------------------------
    if cctld_tld is not None:
        with span("build.populate_cctld", tld=cctld_tld):
            cc_scale = (config.cctld_scale if config.cctld_scale is not None
                        else config.scale)
            # Ordinary registrations track the global scale (they only
            # give the ccTLD zone realistic bulk); the ground-truth
            # fast-deletion population tracks cctld_scale so §4.4b can
            # run at absolute paper counts without inflating everything
            # else.
            cc_scaled = config.cctld.scaled(config.scale)
            cc_truth = config.cctld.scaled(cc_scale)
            registry = registries.get(cctld_tld)
            cc_gen = NameGenerator(bank.stream("names", cctld_tld))
            cc_rng = bank.stream("gen", cctld_tld)
            cc_exec = bank.stream("exec", cctld_tld)
            for month, _days in cal.MONTHS:
                window = month_window(month)
                for ts in _spread_times(cc_rng, window,
                                        cc_scaled.monthly_nrd):
                    profile = pick_profile(cc_rng, BENIGN_PROFILES)
                    plan = RegistrationPlan(
                        domain=cc_gen.by_style(profile.name_style,
                                               cctld_tld),
                        tld=cctld_tld, created_at=ts, profile=profile,
                        registrar=profile.registrar_mix.pick(cc_rng),
                        dns_provider=profile.dns_mix.pick(cc_rng),
                        web_provider=profile.web_mix.pick(cc_rng))
                    _decorate_plan(plan, cc_rng, config, early_prob=0.55)
                    lifecycle = _execute_registration(plan, registry,
                                                      cc_exec)
                    if (plan.cert is not None
                            and lifecycle.zone_added_at is not None):
                        cert_events.append((
                            lifecycle.zone_added_at
                            + plan.cert.delay_after_publish,
                            plan.domain, plan.cert.extra_sans or None,
                            None))
            # Fast deletions (the 714 / 334 / 99 ground truth).
            n_fast_cc = cc_truth.deleted_under_24h
            for ts in _spread_times(cc_rng, config.window, n_fast_cc):
                profile = pick_profile(cc_rng, FAST_MALICIOUS_PROFILES)
                plan = RegistrationPlan(
                    domain=cc_gen.by_style(profile.name_style, cctld_tld),
                    tld=cctld_tld, created_at=ts, profile=profile,
                    registrar=profile.registrar_mix.pick(cc_rng),
                    dns_provider=profile.dns_mix.pick(cc_rng),
                    web_provider=profile.web_mix.pick(cc_rng),
                    fast_takedown=True,
                    removal_delay=_sample_fast_lifetime(
                        cc_rng, config.cctld.fast_median))
                if cc_rng.bernoulli(config.cctld.cert_coverage):
                    plan.cert = CertPlan(
                        delay_after_publish=profile.cert.sample_delay(cc_rng))
                lifecycle = _execute_registration(plan, registry, cc_exec)
                stats["fast_takedowns"] += 1
                if (plan.cert is not None
                        and lifecycle.zone_added_at is not None):
                    cert_events.append((
                        lifecycle.zone_added_at
                        + plan.cert.delay_after_publish,
                        plan.domain, plan.cert.extra_sans or None, None))

    # --- execute certificate requests in time order ---------------------------------
    with span("build.issue_certs") as sp:
        cert_events.sort(key=lambda e: (e[0], e[1]))
        capick = bank.stream("capick", "issue")
        for request_at, domain, sans, pinned_index in cert_events:
            if request_at >= config.window.end:
                continue
            ca = cas[pinned_index if pinned_index is not None
                     else _CA_INDICES.pick(capick)]
            try:
                ca.request_certificate(domain, request_at,
                                       extra_sans=sans or ())
                stats["cert_requests"] += 1
            except ValidationError:
                stats["cert_rejections"] += 1
        sp.annotate(requests=stats["cert_requests"],
                    rejections=stats["cert_rejections"])

    # --- observation channels ---------------------------------------------------------
    with span("build.observation_channels"):
        covered = sorted(targets) + ([cctld_tld] if cctld_tld else [])
        # The snapshot collection runs 3 days past the analysis window —
        # the paper's ±3-day slack for late-published zone files, which
        # also keeps end-of-window registrations out of the transient set.
        archive_window = Window(config.window.start,
                                config.window.end + TRANSIENT_SLACK)
        archive = SnapshotArchive(registries, archive_window,
                                  interval=config.snapshot_interval,
                                  covered_tlds=covered)
        certstream = CertstreamFeed(logs)
        blocklists = BlocklistPanel(seed=config.seed)
        nod = NODFeed()
        broker = Broker()
        ground_truth = GroundTruth(registries, archive, config.window)

    return World(
        config=config, window=config.window, registries=registries,
        archive=archive, dzdb=dzdb, logs=logs, cas=cas,
        certstream=certstream, blocklists=blocklists, nod=nod,
        broker=broker, ground_truth=ground_truth, targets=targets,
        cctld_tld=cctld_tld, stats=stats)


def world_fingerprint(world: World) -> str:
    """Digest of every *sampled* value in a world.

    Two worlds built from the same :class:`ScenarioConfig` must produce
    the same fingerprint — and any change to it means an "optimization"
    perturbed sampling.  The golden test in ``tests/test_determinism.py``
    pins fingerprints per seed, so the fast path stays provably
    value-preserving across PRs.

    Covered: every lifecycle field and record timeline, CT log entries,
    CA-held DV tokens, DZDB history, and the builder's stats.  Excluded
    by design: certificate serials and Merkle state (serials come from a
    process-global counter, so they differ between builds in the same
    process without any sampled value changing).
    """
    h = hashlib.blake2b(digest_size=16)

    def feed(*parts) -> None:
        for part in parts:
            # isinstance, not str(part): str() copies str *subclasses*
            # (interned Names), and this loop renders every domain in
            # the world.  The digested bytes are identical either way.
            h.update((part if isinstance(part, str)
                      else str(part)).encode("utf-8"))
            h.update(b"\x1f")
        h.update(b"\n")

    def feed_timeline(tag: str, timeline) -> None:
        for ts, value in timeline.changes():
            if isinstance(value, frozenset):
                rendered = ",".join(sorted(value))
            elif isinstance(value, tuple):
                rendered = ",".join(value)
            else:
                rendered = str(value)
            feed(tag, ts, rendered)

    for registry in sorted(world.registries, key=lambda r: r.tld):
        feed("registry", registry.tld)
        for lc in sorted(registry.lifecycles(), key=lambda l: l.domain):
            feed("lc", lc.domain, lc.registrar, lc.created_at,
                 lc.zone_added_at, lc.removed_at, lc.zone_removed_at,
                 lc.dns_provider, lc.web_provider, lc.is_malicious,
                 lc.abuse_kind, lc.removal_reason, lc.actor, lc.campaign,
                 lc.held, lc.lame, lc.rdap_sync_lag)
            feed_timeline("ns", lc.ns_timeline)
            feed_timeline("a", lc.a_timeline)
            feed_timeline("aaaa", lc.aaaa_timeline)
    for log in world.logs:
        feed("log", log.log_id)
        for entry in log.entries():
            cert = entry.certificate
            feed("entry", entry.logged_at, cert.common_name,
                 ",".join(cert.sans), cert.issuer, cert.not_before,
                 cert.not_after, cert.reused_validation)
    for ca in world.cas:
        feed("ca", ca.name)
        for token in sorted(ca.tokens(), key=lambda t: t.domain):
            feed("token", token.domain, token.validated_at)
    for record in sorted(world.dzdb.records(), key=lambda r: r.domain):
        feed("dzdb", record.domain, record.first_seen, record.last_seen)
    feed("stats", sorted(world.stats.items()))
    return h.hexdigest()


def small_world(seed: int = 7, tlds: Sequence[str] = ("com", "xyz"),
                scale: float = 1 / 5000,
                include_cctld: bool = False) -> World:
    """A tiny world for tests and the quickstart example."""
    return build_world(ScenarioConfig(
        seed=seed, scale=scale, tlds=list(tlds),
        include_cctld=include_cctld))
