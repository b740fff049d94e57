"""Shared fixtures: small scenario worlds reused across test modules.

World construction is the expensive part of integration tests, so the
fixtures are session-scoped; tests must not mutate fixture worlds.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import run_pipeline
from repro.workload.scenario import ScenarioConfig, build_world


@pytest.fixture(scope="session")
def tiny_world():
    """Two-TLD world, ~2k registrations; fast to build."""
    return build_world(ScenarioConfig(
        seed=11, scale=1 / 5000, tlds=["com", "xyz"], include_cctld=False))


@pytest.fixture(scope="session")
def tiny_result(tiny_world):
    return run_pipeline(tiny_world)


@pytest.fixture(scope="session")
def small_world():
    """All TLDs + ccTLD at 1/2000 — the integration-test world."""
    return build_world(ScenarioConfig(
        seed=5, scale=1 / 2000, include_cctld=True, cctld_scale=0.5))


@pytest.fixture(scope="session")
def small_result(small_world):
    return run_pipeline(small_world)
