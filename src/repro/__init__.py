"""repro — a full reproduction of *Measuring DNS-over-HTTPS Performance
Around the World* (Chhabra et al., IMC 2021).

The paper measures the latency cost of switching from conventional DNS
(Do53) to DNS-over-HTTPS at four public providers, from 22,052
residential clients in 224 countries reached through the BrightData
proxy network.  This package rebuilds the entire measurement system on
a deterministic discrete-event Internet simulator and reproduces every
table and figure of the paper's evaluation.

Quickstart::

    from repro import ReproConfig, run_parallel_campaign

    config = ReproConfig.small(scale=0.05)
    dataset = run_parallel_campaign(config).dataset
    print(dataset.summary())

See :mod:`repro.core` for the measurement methodology, :mod:`repro.analysis`
for the paper's tables/figures, and DESIGN.md for the system inventory.
"""

from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import ReproConfig
from repro.core.groundtruth import GroundTruthHarness
from repro.core.world import World, build_world
from repro.dataset.store import Dataset
from repro.obs import Observability
from repro.parallel import run_parallel_campaign

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "CampaignResult",
    "Dataset",
    "GroundTruthHarness",
    "Observability",
    "ReproConfig",
    "World",
    "build_world",
    "run_parallel_campaign",
    "__version__",
]
