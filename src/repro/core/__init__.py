"""The paper's measurement methodology (its primary contribution).

* :mod:`repro.core.config` — one configuration object for the whole
  reproduction (seed, scale, provider set, TLS version...),
* :mod:`repro.core.world` — builds the simulated Internet: root/TLD/
  authoritative DNS, the web server, the four DoH providers, the
  BrightData fleet and RIPE Atlas probes,
* :mod:`repro.core.timeline` — raw measurement records (the observable
  timestamps and headers of Figure 2),
* :mod:`repro.core.wirepack` — the one binary codec for those records
  (crash-ledger batches and pool transport),
* :mod:`repro.core.doh_timing` — Equations 1–8: deriving t_DoH, t_DoHR
  and DoH-N from the observables,
* :mod:`repro.core.do53_timing` — Do53 extraction and validity rules,
* :mod:`repro.core.client` — the measurement client that drives the
  Super Proxy,
* :mod:`repro.core.groundtruth` — §4 validation experiments (Tables 1,
  2 and the BrightData-vs-Atlas comparison),
* :mod:`repro.core.campaign` — the full data-collection campaign,
* :mod:`repro.core.validation` — Maxmind mismatch filtering (§3.5).
"""

from repro.core.config import ReproConfig
from repro.core.world import World, build_world
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.doh_timing import (
    compute_rtt_estimate,
    compute_t_doh,
    compute_t_dohr,
    doh_n,
)
from repro.core.do53_timing import do53_time, do53_valid
from repro.core.client import MeasurementClient
from repro.core.campaign import Campaign, CampaignResult
from repro.core.groundtruth import (
    GroundTruthHarness,
    GroundTruthRow,
    atlas_consistency,
)
from repro.core.validation import filter_mismatched

__all__ = [
    "Campaign",
    "CampaignResult",
    "Do53Raw",
    "DohRaw",
    "GroundTruthHarness",
    "GroundTruthRow",
    "MeasurementClient",
    "ReproConfig",
    "World",
    "atlas_consistency",
    "build_world",
    "compute_rtt_estimate",
    "compute_t_doh",
    "compute_t_dohr",
    "do53_time",
    "do53_valid",
    "doh_n",
    "filter_mismatched",
]
