"""The scenario plugin engine and its matrix of pinned worlds.

Four layers of guarantees:

* registry mechanics — registration, lookup, knob validation, and the
  CLI spec grammar, all under the uniform :class:`ConfigError` contract;
* plan-hook plumbing — :class:`MonthPlanContext` helpers draw only from
  the scenario streams and stay deterministic;
* the scenario matrix — every registered scenario builds at 1/2000,
  reproduces the fingerprint golden committed in
  ``benchmarks/BENCH_scenarios.json``, and meets its observer
  expectation row (``baseline`` additionally swept across seeds);
* expectations coverage — every registered scenario has an
  expectations row, and vice versa.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import run_pipeline
from repro.errors import ConfigError
from repro.obs.observers import (
    SCENARIO_EXPECTATIONS,
    check_expectations,
    default_pipeline_suite,
    observe_pipeline_result,
    observe_world,
)
from repro.simtime.clock import DAY
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)
from repro.workload.scenarios import (
    Knob,
    Scenario,
    get_scenario,
    iter_scenarios,
    parse_scenario_spec,
    register_scenario,
    scenario_names,
)

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent
     / "benchmarks" / "BENCH_scenarios.json").read_text())


def _matrix_config(name, **overrides):
    """The canonical matrix point the goldens were recorded at."""
    params = dict(seed=GOLDENS["seed"], scale=1.0 / GOLDENS["inv_scale"],
                  include_cctld=False, scenario=name)
    params.update(overrides)
    return ScenarioConfig(**params)


# --------------------------------------------------------------------------
# Registry mechanics
# --------------------------------------------------------------------------

class TestRegistry:

    def test_all_shipped_scenarios_registered(self):
        assert scenario_names() == [
            "baseline", "drop-catch-race", "dynamic-update-hijack",
            "registrar-burst", "slow-zone-registry",
            "ttl-decoupled-updates"]

    def test_iter_matches_names_and_carries_docs(self):
        classes = iter_scenarios()
        assert [cls.name for cls in classes] == scenario_names()
        for cls in classes:
            assert cls.description
            for knob in cls.knobs:
                assert isinstance(knob, Knob) and knob.description

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="registrar-burst"):
            get_scenario("nope")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError, match="burst_day"):
            get_scenario("registrar-burst", {"bogus": 1.0})

    def test_non_numeric_knob_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            get_scenario("registrar-burst", {"burst_day": "soon"})

    def test_knob_overrides_merge_with_defaults(self):
        scenario = get_scenario("registrar-burst", {"burst_mult": 12})
        assert scenario.knob("burst_mult") == 12.0
        assert scenario.knob("burst_day") == 60.0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_scenario
            class Dup(Scenario):
                name = "baseline"

    def test_nameless_class_rejected(self):
        with pytest.raises(ValueError, match="no name"):
            @register_scenario
            class Nameless(Scenario):
                description = "forgot the name"


class TestSpecParsing:

    def test_bare_name(self):
        assert parse_scenario_spec("baseline") == ("baseline", {})

    def test_name_with_knobs(self):
        name, knobs = parse_scenario_spec(
            "registrar-burst:burst_day=30,burst_mult=12")
        assert name == "registrar-burst"
        assert knobs == {"burst_day": 30.0, "burst_mult": 12.0}

    @pytest.mark.parametrize("spec", [
        "", ":burst_day=30", "x:burst_day", "x:=3", "x:a=b"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_scenario_spec(spec)

    def test_config_validates_scenario_eagerly(self):
        # A bad name fails at config construction, before any build work.
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioConfig(seed=1, scale=1 / 5000, scenario="nope")


# --------------------------------------------------------------------------
# The scenario matrix: goldens, observer expectations
# --------------------------------------------------------------------------

@pytest.fixture(scope="module", params=scenario_names())
def matrix_run(request):
    """One scenario built and measured once per module."""
    name = request.param
    world = build_world(_matrix_config(name))
    suite = default_pipeline_suite()
    observe_pipeline_result(suite, run_pipeline(world))
    observe_world(suite, world)
    return {
        "name": name,
        "fingerprint": world_fingerprint(world),
        "suite": suite,
    }


class TestScenarioMatrix:

    def test_fingerprint_matches_committed_golden(self, matrix_run):
        golden = GOLDENS["scenarios"][matrix_run["name"]]["fingerprint"]
        assert matrix_run["fingerprint"] == golden, (
            f"{matrix_run['name']}: scenario sampling was perturbed — "
            "re-record benchmarks/BENCH_scenarios.json and say so in "
            "the PR description")

    def test_observer_expectations_met(self, matrix_run):
        problems = check_expectations(matrix_run["suite"],
                                      matrix_run["name"])
        assert problems == []

    def test_goldens_distinct_across_scenarios(self):
        digests = [entry["fingerprint"]
                   for entry in GOLDENS["scenarios"].values()]
        # baseline aside, every scenario must actually change the world.
        assert len(set(digests)) == len(digests)

    @pytest.mark.parametrize("seed", sorted(
        int(s) for s in GOLDENS["baseline_seed_sweep"]))
    def test_baseline_seed_sweep_matches_goldens(self, seed):
        got = world_fingerprint(build_world(_matrix_config(
            "baseline", seed=seed)))
        assert got == GOLDENS["baseline_seed_sweep"][str(seed)]


class TestExpectationsCoverage:

    def test_every_scenario_has_a_row(self):
        assert set(SCENARIO_EXPECTATIONS) == set(scenario_names())

    def test_unknown_scenario_is_a_problem(self):
        suite = default_pipeline_suite()
        assert check_expectations(suite, "nope") == [
            "no observer expectations recorded for 'nope'"]


# --------------------------------------------------------------------------
# Plugin plumbing: knobs reach the build, hooks stay scoped
# --------------------------------------------------------------------------

class TestPluginPlumbing:

    def test_knob_override_changes_the_world(self):
        default = world_fingerprint(build_world(_matrix_config(
            "registrar-burst", tlds=["com", "xyz"])))
        moved = world_fingerprint(build_world(_matrix_config(
            "registrar-burst", tlds=["com", "xyz"],
            scenario_knobs={"burst_day": 30.0})))
        assert default != moved

    def test_configure_hook_reaches_the_config(self):
        # slow-zone-registry rewrites snapshot_interval before the build.
        world = build_world(_matrix_config("slow-zone-registry",
                                           tlds=["com"]))
        assert world.config.snapshot_interval == 2 * DAY

    def test_registrar_burst_adds_volume_on_the_day(self):
        base = build_world(_matrix_config(None, tlds=["com"]))
        burst = build_world(_matrix_config("registrar-burst",
                                           tlds=["com"]))
        extra = (burst.registries.total_registrations()
                 - base.registries.total_registrations())
        assert extra > 0
        day_start = burst.config.window.start + 60 * DAY
        created = [lc.created_at
                   for registry in burst.registries
                   for lc in registry.lifecycles()
                   if day_start <= lc.created_at < day_start + DAY]
        base_day = [lc.created_at
                    for registry in base.registries
                    for lc in registry.lifecycles()
                    if day_start <= lc.created_at < day_start + DAY]
        assert len(created) - len(base_day) == extra

    def test_hijack_adds_ghost_certs_only(self):
        base = build_world(_matrix_config(None, tlds=["com", "xyz"]))
        hijack = build_world(_matrix_config("dynamic-update-hijack",
                                            tlds=["com", "xyz"]))
        assert (hijack.registries.total_registrations()
                == base.registries.total_registrations())
        assert hijack.stats["ghost_certs"] > base.stats["ghost_certs"]

    def test_scenario_ghosts_pin_their_ca(self):
        from repro.workload.calibration import MONTH_KEYS, build_targets
        from repro.workload.namegen import month_scoped
        from repro.workload.scenario import _plan_month_for_tld
        from repro.simtime.rng import StreamBank

        config = _matrix_config("dynamic-update-hijack")
        plugin = config.plugin()
        config = plugin.configure(config)
        targets = build_targets(config.scale)
        targets = plugin.transform_targets(config, targets)
        bank = StreamBank(config.seed)
        month = MONTH_KEYS[-1]  # contains hijack_day=70
        namegen = month_scoped(bank.stream("names", "com", month),
                               MONTH_KEYS.index(month))
        _, ghosts = _plan_month_for_tld(config, targets["com"], month,
                                        bank, namegen)
        scenario_ghosts = [g for g in ghosts if g.ca_index is not None]
        assert scenario_ghosts, "hijack planned no ghosts in its month"

    def test_ttl_storm_only_rewires_plans(self):
        base = build_world(_matrix_config(None, tlds=["com"]))
        storm = build_world(_matrix_config("ttl-decoupled-updates",
                                           tlds=["com"]))
        assert (storm.registries.total_registrations()
                == base.registries.total_registrations())
        assert (storm.certstream.event_count()
                == base.certstream.event_count())
