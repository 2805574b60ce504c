"""Observability must observe, never perturb.

Two invariants from the design contract:

* the exported dataset (JSON and CSVs) is **byte-identical** with the
  observability layer on or off — recording reads already-computed
  values and never touches an RNG stream;
* the merged deterministic metrics (counters, histograms) are identical
  for any worker count at a fixed shard layout.  Gauges are exempt by
  design: they carry wall-clock readings under shard-unique names.
"""

import pytest

from repro.core.config import ReproConfig
from repro.dataset.csvio import export_csv
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

PARITY_KWARGS = dict(
    num_shards=4,
    max_nodes=48,
    atlas_probes_per_country=1,
    atlas_repetitions=1,
)

N_NODES = 16


def _config() -> ReproConfig:
    return ReproConfig(population=PopulationConfig(scale=0.01))


def _run_single_shard(observe):
    return run_parallel_campaign(
        _config(), workers=1, num_shards=1, max_nodes=N_NODES,
        atlas_probes_per_country=1, atlas_repetitions=1, observe=observe,
    )


def _read_files(directory):
    data = {}
    for path in sorted(directory.iterdir()):
        data[path.name] = path.read_bytes()
    return data


class TestObserveNeverPerturbs:
    def test_serial_dataset_bytes_identical_with_obs_on(self, tmp_path):
        plain = _run_single_shard(False)
        observed = _run_single_shard(True)

        assert observed.metrics is not None
        assert len(observed.traces) > 0
        assert plain.metrics is None and plain.traces is None

        plain_dir = tmp_path / "plain"
        observed_dir = tmp_path / "observed"
        plain_dir.mkdir()
        observed_dir.mkdir()
        export_csv(plain.dataset, str(plain_dir))
        export_csv(observed.dataset, str(observed_dir))
        assert _read_files(plain_dir) == _read_files(observed_dir)

        plain_json = tmp_path / "plain.json"
        observed_json = tmp_path / "observed.json"
        plain.dataset.save(str(plain_json))
        observed.dataset.save(str(observed_json))
        assert plain_json.read_bytes() == observed_json.read_bytes()

    def test_parallel_dataset_bytes_identical_with_obs_on(self, tmp_path):
        config = _config()
        plain = run_parallel_campaign(config, workers=1, **PARITY_KWARGS)
        observed = run_parallel_campaign(
            config, workers=1, observe=True, **PARITY_KWARGS
        )
        plain_json = tmp_path / "plain.json"
        observed_json = tmp_path / "observed.json"
        plain.dataset.save(str(plain_json))
        observed.dataset.save(str(observed_json))
        assert plain_json.read_bytes() == observed_json.read_bytes()


class TestMergeDeterminism:
    @pytest.fixture(scope="class")
    def merged(self):
        config = _config()
        serial = run_parallel_campaign(
            config, workers=1, observe=True, **PARITY_KWARGS
        )
        parallel = run_parallel_campaign(
            config, workers=4, observe=True, **PARITY_KWARGS
        )
        return serial, parallel

    def test_counters_identical_across_worker_counts(self, merged):
        serial, parallel = merged
        assert serial.metrics["counters"] == parallel.metrics["counters"]
        assert serial.metrics["counters"]["campaign.raw_doh"] > 0

    def test_histograms_identical_across_worker_counts(self, merged):
        serial, parallel = merged
        assert serial.metrics["histograms"] == parallel.metrics["histograms"]
        assert "doh.tunnel_ms" in serial.metrics["histograms"]

    def test_traces_identical_across_worker_counts(self, merged):
        serial, parallel = merged
        assert serial.traces.snapshot() == parallel.traces.snapshot()
        assert len(serial.traces) > 0

    def test_gauges_carry_per_shard_wall_clock(self, merged):
        serial, _parallel = merged
        names = set(serial.metrics["gauges"])
        assert {"shard.{}.wall_s".format(k) for k in range(4)} <= names
