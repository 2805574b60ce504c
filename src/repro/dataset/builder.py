"""Builds a processed :class:`Dataset` from raw campaign records.

Responsibilities:

* apply Equations 6–8 to every raw DoH record,
* join each DoH query against the authoritative server's query log to
  discover which recursive resolver (PoP) served it — the paper's
  mechanism for enumerating provider PoPs,
* apply the Do53 validity rule and merge RIPE Atlas supplements,
* register clients once, post Maxmind validation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.do53_timing import do53_valid
from repro.core.doh_timing import (
    compute_rtt_estimate,
    compute_t_doh,
    compute_t_dohr,
)
from repro.core.timeline import Do53Raw, DohRaw
from repro.dataset.records import ClientRecord, Do53Sample, DohSample
from repro.dataset.store import Dataset
from repro.geo.geolocate import GeolocationService
from repro.geo.ipalloc import prefix_of

__all__ = ["DatasetBuilder"]


class DatasetBuilder:
    """Accumulates raw measurements into a processed dataset."""

    def __init__(
        self,
        geolocation: GeolocationService,
        min_clients_per_country: int = 10,
    ) -> None:
        self.geolocation = geolocation
        self.dataset = Dataset(min_clients_per_country=min_clients_per_country)
        self._seen_clients: Dict[str, ClientRecord] = {}
        #: qname -> (resolver ip) from the authoritative query log.
        self._qname_resolver: Dict[str, str] = {}

    # -- auth-log join ------------------------------------------------------

    def ingest_qname_map(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> None:
        """Record which resolver asked for each unique qname.

        Each shard reduces its authoritative query log to
        ``(qname, resolver_ip)`` pairs before shipping it across the
        process boundary; first occurrence wins (retries come from the
        same resolver).
        """
        for qname, src_ip in pairs:
            self._qname_resolver.setdefault(qname, src_ip)

    def _locate_pop(self, qname: str) -> Tuple[str, Optional[float], Optional[float]]:
        resolver_ip = self._qname_resolver.get(qname.lower().rstrip("."))
        if not resolver_ip:
            return "", None, None
        record = self.geolocation.lookup(resolver_ip)
        if record is None:
            return prefix_of(resolver_ip), None, None
        return (
            prefix_of(resolver_ip),
            record.location.lat,
            record.location.lon,
        )

    # -- clients ----------------------------------------------------------

    def add_client(self, node_id: str, address: str, country: str) -> None:
        """Register a validated client once (idempotent per node id)."""
        if node_id in self._seen_clients:
            return
        located = self.geolocation.lookup(address)
        lat = located.location.lat if located else 0.0
        lon = located.location.lon if located else 0.0
        record = ClientRecord.from_parts(node_id, address, country, lat, lon)
        self._seen_clients[node_id] = record
        self.dataset.clients.append(record)

    # -- measurements ---------------------------------------------------------

    #: Estimates outside this window are loss-corrupted: a retransmission
    #: during tunnel setup violates Assumption 1 (stable RTT) and can
    #: drive Equations 7-8 negative.  Real campaigns discard such points.
    MIN_PLAUSIBLE_MS = 1.0
    MAX_PLAUSIBLE_MS = 60000.0

    def _plausible(self, raw: DohRaw) -> bool:
        t_doh = compute_t_doh(raw)
        t_dohr = compute_t_dohr(raw)
        return (
            self.MIN_PLAUSIBLE_MS <= t_dohr <= self.MAX_PLAUSIBLE_MS
            and self.MIN_PLAUSIBLE_MS <= t_doh <= self.MAX_PLAUSIBLE_MS
        )

    def add_doh(self, raw: DohRaw) -> None:
        """Apply Equations 6-8 to *raw* and store the sample."""
        if raw.success and not self._plausible(raw):
            raw = DohRaw(
                node_id=raw.node_id,
                exit_ip=raw.exit_ip,
                claimed_country=raw.claimed_country,
                provider=raw.provider,
                qname=raw.qname,
                t_a=raw.t_a,
                t_b=raw.t_b,
                t_c=raw.t_c,
                t_d=raw.t_d,
                headers=raw.headers,
                tls_version=raw.tls_version,
                run_index=raw.run_index,
                success=False,
                error="implausible estimate (loss-corrupted measurement)",
            )
        if raw.success:
            pop_prefix, pop_lat, pop_lon = self._locate_pop(raw.qname)
            sample = DohSample(
                node_id=raw.node_id,
                country=raw.claimed_country,
                provider=raw.provider,
                run_index=raw.run_index,
                t_doh_ms=compute_t_doh(raw),
                t_dohr_ms=compute_t_dohr(raw),
                rtt_estimate_ms=compute_rtt_estimate(raw),
                pop_ip_prefix=pop_prefix,
                pop_lat=pop_lat,
                pop_lon=pop_lon,
            )
        else:
            sample = DohSample(
                node_id=raw.node_id,
                country=raw.claimed_country,
                provider=raw.provider,
                run_index=raw.run_index,
                # A failure has no latency: None (never 0.0) so a zero
                # can never dilute latency percentiles unnoticed.
                t_doh_ms=None,
                t_dohr_ms=None,
                rtt_estimate_ms=None,
                success=False,
                error=raw.error,
            )
        self.dataset.doh.append(sample)

    def add_do53(self, raw: Do53Raw) -> None:
        """Apply the Do53 validity rule to *raw* and store it."""
        self.dataset.do53.append(
            Do53Sample(
                node_id=raw.node_id,
                country=raw.claimed_country,
                run_index=raw.run_index,
                time_ms=raw.dns_ms if raw.success else None,
                source="brightdata",
                valid=do53_valid(raw),
                success=raw.success,
                error=raw.error,
            )
        )

    def add_atlas_do53(
        self, probe_id: str, country: str, run_index: int, time_ms: float
    ) -> None:
        """Store one RIPE Atlas Do53 sample."""
        self.dataset.do53.append(
            Do53Sample(
                node_id=probe_id,
                country=country,
                run_index=run_index,
                time_ms=time_ms,
                source="ripeatlas",
            )
        )

    def build(self) -> Dataset:
        """The accumulated dataset."""
        return self.dataset
