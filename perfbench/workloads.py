"""The three workloads, as run inside one fresh measurement process.

Each workload is a closed loop: one parent process runs the campaign
and then its outputs, with at most two worker processes.  The benchmark
seed becomes a ``ReproConfig``/``ServiceConfig``; the program receives
only that config.

A workload object goes through ``setup()`` (imports, config, plan and,
for ``chaos-pool``, pool spawn and prime) and ``run()`` (campaign,
outputs, output check).  ``setup()`` ends where measurement starts;
nothing of the program is timed across that line twice.

Traced runs install a :class:`Tracer` first.  It wraps the program's
public entry points where they are called from, profiles the simulator
stack (``Campaign.measure``/``Campaign.collect_atlas``) with
:mod:`cProfile`, and scrapes the world counters after each measurement
phase with ``repro.obs.collect.collect_world_metrics``.  Untraced runs
install only the two epoch-boundary timestamps the service needs.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import os
import pstats
import statistics
import time
from collections import defaultdict
from typing import Dict, List

from tracing import Patcher, SpanRecorder, package_self_times, self_times

__all__ = ["SIZES", "Tracer", "WORKLOADS", "config_seed", "file_sha256"]

#: ``--seed n`` maps to config seed ``BASE_SEED + n``: seed 0 is the
#: repository's default (the paper's collection start, April 2021).
BASE_SEED = 20210402

#: Packages of the coroutine-interleaved simulator stack whose profile
#: self time is reported (plus ``atlas``, ``ckpt`` and ``other``).
SIM_PACKAGES = (
    "netsim", "dns", "tls", "http", "proxy", "doh", "geo", "core",
    "faults", "atlas", "ckpt",
)

ANALYSIS_ARTIFACTS = (
    "table3", "table4", "table5", "table6", "figure3", "figure4",
    "figure5", "figure6", "figure7", "figure8", "figure9", "headlines",
)

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is the smoke-test size (a capped fleet, seconds per workload).
SIZES = {
    "full": {
        "paper-inline": {"scale": 0.01, "max_nodes": None},
        "chaos-pool": {"scale": 0.01, "max_nodes": None, "batch": 25},
        "service-epochs": {
            "scale": 0.01, "epochs": 3, "batch": 60, "shards": 2,
        },
    },
    "tiny": {
        "paper-inline": {"scale": 0.02, "max_nodes": 120},
        "chaos-pool": {"scale": 0.004, "max_nodes": 48, "batch": 2},
        "service-epochs": {
            "scale": 0.004, "epochs": 2, "batch": 60, "shards": 2,
        },
    },
}


#: The service's evolving schedule at a steady intensity: every epoch
#: has churn and bursty loss at levels that drift from epoch to epoch.
#: Provider outages and super-proxy overload are off: their random
#: starts, lengths and duty cycles let one seed refuse far more of the
#: fleet than another (simulator events per seed varied by 10% with
#: overload on, 0.3% without).  Seeds differ in victims and timing, not
#: in how much of the fleet fails.
FAULT_PARAMS = {
    "outage_start_prob": 0.0,
    "churn_rate_min": 0.08,
    "churn_rate_max": 0.12,
    "overload_prob": 0.0,
    "bursty_loss_prob": 1.0,
}

#: Providers the service measures (two of the paper's four, which keeps
#: one measurement near ten seconds).
SERVICE_PROVIDERS = ("cloudflare", "google")


def config_seed(seed: int) -> int:
    return BASE_SEED + seed


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(directory: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def lost_measurements(failures, config) -> int:
    """Measurements a list of ``NodeFailure`` records never produced."""
    per_node = config.runs_per_client * (len(config.providers) + 1)
    return len(failures) * per_node


def checkpoint_units(directory: str) -> Dict[str, int]:
    """Summed ``batches_replayed``/``batches_measured`` of a checkpoint."""
    with open(os.path.join(directory, "checkpoint.json")) as handle:
        manifest = json.load(handle)
    out = {"batches_replayed": 0, "batches_measured": 0}
    for run in manifest.get("runs", []):
        for unit in run.get("units", []):
            for key in out:
                out[key] += int(unit.get(key, 0))
    return out


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Spans, counters and a simulator-stack profile for one process.

    *full* selects a traced run; without it only the named light spans
    needed by end-to-end metrics (service epoch boundaries) are kept.
    """

    def __init__(self, full: bool) -> None:
        self.full = full
        self.spans = SpanRecorder()
        self.patcher = Patcher()
        self.profile = cProfile.Profile() if full else None
        self.counters: Dict[str, float] = defaultdict(float)
        self.blob_bytes = 0
        self.profiled_calls = 0
        self.campaign_failures: List = []

    # -- installation -------------------------------------------------------

    def _span(self, owner, attr: str, name: str, on_exit=None,
              profiled: bool = False) -> None:
        def make(fn):
            if profiled:
                fn = self._profiled(fn)
            return self.spans.wrap(name, fn, on_exit=on_exit)

        self.patcher.wrap(owner, attr, make)

    def _profiled(self, fn):
        profile = self.profile

        def wrapper(*args, **kwargs):
            self.profiled_calls += 1
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()

        return wrapper

    def install_service(self) -> None:
        """Epoch boundaries: the service's campaign call and publish."""
        import repro.service.supervisor as supervisor

        def keep_failures(_args, _kwargs, result):
            self.campaign_failures.extend(result.failures)

        self._span(supervisor, "run_parallel_campaign", "service.campaign",
                   on_exit=keep_failures)
        self._span(supervisor.ServiceSupervisor, "_publish",
                   "service.publish")
        if self.full:
            self._span(supervisor, "availability_report",
                       "analysis.availability")
            self._span(supervisor, "verify_checkpoint_dir", "ckpt.verify")

    def install(self) -> None:
        """Every per-layer span of a traced run."""
        if not self.full:
            return
        import repro.ckpt.checkpoint as checkpoint
        import repro.core.campaign as campaign
        import repro.dataset.store as store
        import repro.parallel.executor as executor
        import repro.parallel.pool as pool
        import repro.parallel.worker as worker
        from repro.obs.collect import collect_world_metrics
        from repro.obs.metrics import MetricsRegistry

        def scrape(args, _kwargs, _result):
            registry = MetricsRegistry()
            collect_world_metrics(args[0].world, registry)
            for name, value in registry.counters().items():
                self.counters[name] += value

        def count_blob(args, _kwargs, _result):
            packed = args[0]
            self.blob_bytes += len(getattr(packed, "payload", packed))

        self._span(worker, "build_world", "core.build_world")
        self._span(campaign.Campaign, "measure", "core.measure",
                   on_exit=scrape, profiled=True)
        self._span(campaign.Campaign, "collect_atlas", "atlas.collect",
                   on_exit=scrape, profiled=True)
        self._span(executor, "run_measurement_shard", "parallel.shard")
        self._span(executor, "run_atlas_task", "atlas")
        self._span(executor, "_merge", "dataset.build")
        self._span(executor, "unpack_shard_result", "parallel.unpack",
                   on_exit=count_blob)
        self._span(executor, "unpack_atlas_samples", "parallel.unpack",
                   on_exit=count_blob)
        self._span(pool.WarmWorkerPool, "run_items", "parallel.dispatch")
        self._span(store.Dataset, "save", "dataset.save")
        self._span(store.Dataset, "load", "dataset.load")
        self._span(store.Dataset, "merge", "dataset.merge")
        self._span(checkpoint.MeasureCheckpoint, "commit_batch",
                   "ckpt.commit")

    def restore(self) -> None:
        self.patcher.restore()

    # -- reporting ----------------------------------------------------------

    def package_seconds(self) -> Dict[str, float]:
        import repro

        if not self.profiled_calls:
            return {}
        root = os.path.dirname(os.path.abspath(repro.__file__))
        stats = pstats.Stats(self.profile).stats
        return package_self_times(stats, root)


# -- workloads --------------------------------------------------------------


class Workload:
    """One workload's setup and measured run inside a fresh process."""

    name = ""
    #: Every module the workload drives, imported (and timed) first.
    modules: tuple = ()
    uses_pool = False

    def __init__(self, seed: int, size: str, workdir: str,
                 tracer: Tracer) -> None:
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.workdir = workdir
        self.tracer = tracer
        self.result: Dict = {"checks": {}, "layers": {}}
        self.timings: Dict[str, float] = {}
        #: (start, end) intervals for the reference-seconds correction
        #: (``probe.py``): "campaign" lists the campaign's intervals,
        #: "epochs" one list of intervals per epoch.
        self.windows: Dict[str, list] = {}

    def check(self, name: str, ok: bool) -> None:
        self.result["checks"][name] = bool(ok)

    def close(self) -> None:
        """Release what setup acquired (the pool)."""

    def _plan(self, config):
        from repro.core.plan import WorldPlan

        return WorldPlan.for_config(config)

    def _count(self, dataset, failures, config) -> None:
        lost = lost_measurements(failures, config)
        self.result["measurements"] = (
            len(dataset.doh) + len(dataset.do53) + lost
        )
        self.result["failed_measurements"] = lost

    def _outputs(self, builders: Dict) -> None:
        """Save + reload the dataset, then write every artifact in order.

        Times the whole stage as ``artifacts_s`` and each artifact as
        ``analysis.<name>.s``; marks the end of the measured run.
        """
        from repro.dataset.store import Dataset

        start = time.perf_counter()
        path = os.path.join(self.workdir, "dataset.json")
        self.dataset.save(path)
        loaded = Dataset.load(path)
        layers = self.result["layers"]
        with open(os.path.join(self.workdir, "artifacts.txt"), "w") as out:
            for artifact, build in builders.items():
                began = time.perf_counter()
                rendered = repr(build(loaded))
                layers["analysis.{}.s".format(artifact)] = (
                    time.perf_counter() - began
                )
                out.write("{}\n{}\n\n".format(artifact, rendered))
        stop = time.perf_counter()
        self.timings["artifacts_s"] = stop - start
        self.timings["epochs"] = [
            self.timings["campaign_s"] + self.timings["artifacts_s"]
        ]
        self.windows["epochs"] = [self.windows["campaign"] + [(start, stop)]]
        self.timings["end"] = time.monotonic()
        self.result["digest"] = file_sha256(path)
        self.result["dataset_bytes"] = os.path.getsize(path)
        self._roundtrip(path, loaded)

    def _roundtrip(self, path: str, loaded) -> None:
        """save -> load -> save must reproduce the bytes exactly."""
        again = os.path.join(self.workdir, "dataset.resaved.json")
        loaded.save(again)
        with open(path, "rb") as a, open(again, "rb") as b:
            self.check("save_load_save_identical", a.read() == b.read())


def paper_artifacts() -> Dict:
    """Every paper table, figure and the section-5 headlines, by name."""
    from repro.analysis import figures, tables
    from repro.analysis.geography import country_medians
    from repro.analysis.slowdown import headline_stats

    return {
        "table3": tables.table3_dataset_composition,
        "table4": tables.table4_logistic,
        "table5": tables.table5_linear,
        "table6": tables.table6_linear_by_resolver,
        "figure3": figures.figure3_clients_per_country,
        "figure4": figures.figure4_resolution_cdfs,
        "figure5": figures.figure5_country_medians,
        "figure6": figures.figure6_potential_improvement,
        "figure7": figures.figure7_delta_by_resolver,
        "figure8": figures.figure8_client_map,
        "figure9": figures.figure9_client_pop_distance,
        "headlines": lambda d: (headline_stats(d), country_medians(d)),
    }


class PaperInline(Workload):
    """``run_parallel_campaign(workers=1)`` + dataset + every artifact."""

    name = "paper-inline"
    modules = (
        "repro", "repro.parallel.executor", "repro.analysis.tables",
        "repro.analysis.figures",
    )

    def setup(self) -> None:
        from repro.core.config import ReproConfig
        from repro.proxy.population import PopulationConfig

        self.config = ReproConfig(
            seed=config_seed(self.seed),
            population=PopulationConfig(scale=self.params["scale"]),
        )
        self._plan(self.config)

    def run(self) -> None:
        from repro.parallel.executor import run_parallel_campaign

        start = time.perf_counter()
        campaign = run_parallel_campaign(
            self.config, workers=1, max_nodes=self.params["max_nodes"]
        )
        stop = time.perf_counter()
        self.timings["campaign_s"] = stop - start
        self.windows["campaign"] = [(start, stop)]
        self.dataset = campaign.dataset

        self._outputs(paper_artifacts())
        self._count(self.dataset, campaign.failures, self.config)


class ChaosPool(Workload):
    """Warm pool, checkpointing, chaos faults and a worker-crash drill."""

    name = "chaos-pool"
    modules = ("repro", "repro.parallel.executor", "repro.analysis.failures")
    uses_pool = True
    workers = 2
    #: The drill kills the worker running this shard before its third
    #: batch; the retry replays two ledger batches.
    crash_shard = 3
    crash_after_batches = 2

    def setup(self) -> None:
        from repro.core.config import ReproConfig
        from repro.faults.plan import FaultPlan, WorkerCrash
        from repro.parallel.pool import WarmWorkerPool
        from repro.proxy.population import PopulationConfig

        seed = config_seed(self.seed)
        faults = dataclasses.replace(
            FaultPlan.chaos(seed),
            worker_crash=WorkerCrash(
                after_batches=self.crash_after_batches,
                shard_index=self.crash_shard,
            ),
        )
        self.config = ReproConfig(
            seed=seed,
            population=PopulationConfig(scale=self.params["scale"]),
            batch_size=self.params["batch"],
            faults=faults,
        )
        plan = self._plan(self.config)
        began = time.perf_counter()
        self.pool = WarmWorkerPool(self.workers)
        spawned = time.perf_counter()
        self.pool.prime(self.config, plan)
        # One trivial task per worker: returns once every worker has
        # started, imported and applied the prime.
        self.pool.run_items(
            [(abs, 0, "ready-{}".format(k)) for k in range(self.workers)]
        )
        ready = time.perf_counter()
        self.result["layers"]["parallel.pool_spawn.s"] = spawned - began
        self.result["layers"]["parallel.prime.s"] = ready - spawned

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()
            self.pool = None

    def run(self) -> None:
        from repro.analysis.failures import (
            country_failure_rates,
            failure_reasons,
            provider_failure_rates,
            render_failure_report,
        )
        from repro.parallel.executor import run_parallel_campaign

        ckpt_dir = os.path.join(self.workdir, "ckpt")
        start = time.perf_counter()
        campaign = run_parallel_campaign(
            self.config,
            workers=self.workers,
            max_nodes=self.params["max_nodes"],
            checkpoint_dir=ckpt_dir,
            resume="auto",
            pool=self.pool,
            observe=self.tracer.full,
        )
        stop = time.perf_counter()
        self.timings["campaign_s"] = stop - start
        self.windows["campaign"] = [(start, stop)]
        self.dataset = campaign.dataset
        self.close()

        self._outputs({
            "provider_failures": provider_failure_rates,
            "country_failures": country_failure_rates,
            "failure_reasons": failure_reasons,
            "failure_report": render_failure_report,
        })
        units = checkpoint_units(ckpt_dir)
        self.result["ckpt"] = dict(units, bytes=tree_bytes(ckpt_dir))
        self.check("crash_drill_replayed", units["batches_replayed"] > 0)
        self._count(self.dataset, campaign.failures, self.config)
        if campaign.metrics is not None:
            self._worker_metrics(campaign.metrics)

    def _worker_metrics(self, snapshot: Dict) -> None:
        """Workers' deterministic counters and shard wall gauges."""
        for name, value in snapshot.get("counters", {}).items():
            self.tracer.counters[name] += value
        walls = [
            value for name, value in snapshot.get("gauges", {}).items()
            if name.startswith("shard.") and name.endswith(".wall_s")
        ]
        self.result["shard_walls"] = walls


class ServiceEpochs(Workload):
    """The longitudinal service: epochs, checkpoints, publish per epoch."""

    name = "service-epochs"
    modules = ("repro", "repro.service.supervisor", "repro.ckpt.quarantine")

    def setup(self) -> None:
        from repro.faults.epochs import EpochScheduleParams
        from repro.service.supervisor import (
            ServiceConfig,
            ServiceSupervisor,
        )

        self.service_dir = os.path.join(self.workdir, "service")
        self.config = ServiceConfig(
            directory=self.service_dir,
            master_seed=config_seed(self.seed),
            scale=self.params["scale"],
            epochs=self.params["epochs"],
            runs_per_epoch=1,
            num_shards=self.params["shards"],
            providers=SERVICE_PROVIDERS,
            batch_size=self.params["batch"],
            fault_params=EpochScheduleParams(**FAULT_PARAMS),
            workers=1,
            retry_backoff_s=0.0,
        )
        self._plan(self.config.epoch_config(0))
        self.supervisor = ServiceSupervisor(self.config)
        self.tracer.install_service()

    def run(self) -> None:
        from repro.ckpt.quarantine import verify_checkpoint_dir
        from repro.dataset.store import Dataset
        from repro.service import paths

        start = time.perf_counter()
        code = self.supervisor.run()
        self.timings["end"] = time.monotonic()
        self.check("service_exit_ok", code == 0)

        spans = self.tracer.spans
        campaigns = [s for s in spans.spans if s[0] == "service.campaign"]
        publishes = [s for s in spans.spans if s[0] == "service.publish"]
        self.timings["campaign_s"] = sum(e - s for _, s, e, _ in campaigns)
        self.timings["artifacts_s"] = sum(e - s for _, s, e, _ in publishes)
        self.timings["epochs"] = [
            pub[2] - camp[1] for camp, pub in zip(campaigns, publishes)
        ]
        self.windows["campaign"] = [(s, e) for _, s, e, _ in campaigns]
        self.windows["epochs"] = [
            [(camp[1], pub[2])] for camp, pub in zip(campaigns, publishes)
        ]
        self.check(
            "one_publish_per_epoch",
            len(campaigns) == len(publishes) == self.config.epochs,
        )

        path = paths.dataset_path(self.service_dir)
        self.result["digest"] = file_sha256(path)
        self.result["dataset_bytes"] = os.path.getsize(path)
        began = time.perf_counter()
        healthy = True
        replayed = measured = 0
        ckpt_bytes = 0
        for epoch in range(self.config.epochs):
            directory = paths.epoch_dir(self.service_dir, epoch)
            healthy &= verify_checkpoint_dir(directory).status == "clean"
            units = checkpoint_units(directory)
            replayed += units["batches_replayed"]
            measured += units["batches_measured"]
            ckpt_bytes += tree_bytes(directory)
        self.result["layers"]["ckpt.verify.s"] = time.perf_counter() - began
        self.check("epoch_checkpoints_clean", healthy)
        self.result["ckpt"] = {
            "batches_replayed": replayed,
            "batches_measured": measured,
            "bytes": ckpt_bytes,
        }
        dataset = Dataset.load(path)
        self._count(
            dataset, self.tracer.campaign_failures,
            self.config.epoch_config(0),
        )


WORKLOADS = {
    cls.name: cls for cls in (PaperInline, ChaosPool, ServiceEpochs)
}


def layer_metrics(workload: Workload, tracer: Tracer,
                  import_s: float) -> Dict[str, float]:
    """Every per-layer metric of a traced run (0 where bypassed)."""
    spans = tracer.spans
    result = workload.result
    timed = result["layers"]
    layers: Dict[str, float] = {"setup.import_s": import_s}
    for name in ANALYSIS_ARTIFACTS:
        key = "analysis.{}.s".format(name)
        layers[key] = timed.get(key, 0.0)
    for key in ("parallel.pool_spawn.s", "parallel.prime.s"):
        layers[key] = timed.get(key, 0.0)

    # Rows never double count: measure excludes the checkpoint commits
    # inside it, Atlas excludes its world build.
    own = self_times(spans.spans)
    layers["core.build_world.calls"] = spans.count("core.build_world")
    layers["core.build_world.s"] = spans.total("core.build_world")
    layers["core.measure.s"] = own.get("core.measure", 0.0)
    packages = tracer.package_seconds()
    for package in SIM_PACKAGES + ("other",):
        layers["{}.self_s".format(package)] = packages.get(package, 0.0)

    counters = tracer.counters
    measurements = result.get("measurements", 0)
    events = counters.get("sim.events_executed", 0)
    layers["netsim.events_executed"] = events
    layers["netsim.events_per_meas"] = (
        events / measurements if measurements else 0.0
    )

    def ratio(prefix: str) -> float:
        hits = counters.get(prefix + "_hits", 0)
        misses = counters.get(prefix + "_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    layers["dns.isp_cache.hit_ratio"] = ratio("dns.isp_cache")
    layers["doh.provider_cache.hit_ratio"] = ratio("doh.provider_cache")
    layers["proxy.superproxy_cache.hit_ratio"] = ratio(
        "proxy.superproxy_cache"
    )
    layers["proxy.tunnels"] = counters.get("proxy.tunnels_served", 0)
    layers["faults.activations"] = sum(
        value for name, value in counters.items()
        if name.startswith("faults.")
    )

    layers["atlas.s"] = own.get("atlas", 0.0) + spans.total("atlas.collect")
    layers["analysis.availability.s"] = spans.total("analysis.availability")
    layers["dataset.build.s"] = spans.total("dataset.build")
    layers["dataset.save.s"] = spans.total("dataset.save")
    layers["dataset.load.s"] = spans.total("dataset.load")
    layers["dataset.merge.s"] = spans.total("dataset.merge")
    layers["dataset.bytes"] = result.get("dataset_bytes", 0)
    layers["artifacts_s"] = workload.timings.get("artifacts_s", 0.0)

    dispatch = spans.total("parallel.dispatch")
    layers["parallel.dispatch.s"] = dispatch
    layers["parallel.unpack.s"] = spans.total("parallel.unpack")
    layers["parallel.blob_bytes"] = tracer.blob_bytes
    if workload.uses_pool:
        walls = result.get("shard_walls", [])
        capacity = workload.workers * dispatch
    else:
        walls = spans.durations("parallel.shard")
        capacity = workload.timings.get("campaign_s", 0.0)
    layers["parallel.shard_wall.max_s"] = max(walls) if walls else 0.0
    layers["parallel.shard_wall.median_s"] = (
        statistics.median(walls) if walls else 0.0
    )
    layers["parallel.busy_share"] = sum(walls) / capacity if capacity else 0.0

    layers["ckpt.commit.calls"] = spans.count("ckpt.commit")
    layers["ckpt.commit.s"] = spans.total("ckpt.commit")
    layers["ckpt.verify.s"] = (
        timed.get("ckpt.verify.s", 0.0) + spans.total("ckpt.verify")
    )
    ckpt = result.get("ckpt", {})
    layers["ckpt.bytes"] = ckpt.get("bytes", 0)
    layers["ckpt.batches_replayed"] = ckpt.get("batches_replayed", 0)
    layers["ckpt.batches_measured"] = ckpt.get("batches_measured", 0)

    service_campaign = spans.total("service.campaign")
    epochs = workload.timings.get("epochs", [])
    layers["service.campaign.s"] = service_campaign
    layers["service.publish.s"] = (
        sum(epochs) - service_campaign if service_campaign else 0.0
    )
    return layers
