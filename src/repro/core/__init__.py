"""The DarkDNS pipeline — the paper's primary contribution."""

from repro.core.records import (
    Candidate,
    MonitorReport,
    PipelineResult,
    ValidationVerdict,
)
from repro.core.ctdetect import CTDetector, DetectorStats
from repro.core.rdap_collect import RDAPCollector, RDAPCollectorConfig
from repro.core.monitor import AnalyticMonitor, MonitorConfig
from repro.core.validate import Validator, ValidatorConfig
from repro.core.transient import TransientBreakdown, TransientClassifier
from repro.core.feed import FeedRecord, PublicFeed
from repro.core.pipeline import DarkDNSPipeline, run_pipeline

__all__ = [
    "Candidate", "MonitorReport", "PipelineResult", "ValidationVerdict",
    "CTDetector", "DetectorStats",
    "RDAPCollector", "RDAPCollectorConfig",
    "AnalyticMonitor", "MonitorConfig",
    "Validator", "ValidatorConfig",
    "TransientBreakdown", "TransientClassifier",
    "FeedRecord", "PublicFeed",
    "DarkDNSPipeline", "run_pipeline",
]
