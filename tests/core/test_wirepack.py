"""The one sample codec (``repro.core.wirepack``) and the shard-result
envelope built on it.

The codec is transport for the byte-identity invariant: every decoded
record must compare equal to the original field for field — floats
exactly (struct doubles, no text round-trip), header key order
preserved (float addition is not associative; ``brightdata_ms`` sums
the box values in insertion order).
"""

import math

import pytest

from repro.core.campaign import NodeFailure
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.wirepack import (
    WirepackError,
    pack_atlas_samples,
    pack_samples,
    unpack_atlas_samples,
    unpack_samples,
)
from repro.parallel.worker import (
    PackedShardResult,
    ShardResult,
    pack_shard_result,
    unpack_shard_result,
)
from repro.proxy.headers import TimelineHeaders


def _doh(index: int = 0, **overrides) -> DohRaw:
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.0.{}.7".format(index % 250),
        claimed_country="DE",
        provider="cloudflare",
        qname="s0-{}.example.repro.net".format(index),
        t_a=1.5 + index,
        # Deliberately awkward doubles: must survive exactly.
        t_b=0.1 + 0.2,
        t_c=123456.789012345,
        t_d=5e-324,
        headers=TimelineHeaders(
            # Non-sorted key order: the codec must keep it.
            tun={"dns": 23.4375, "connect": 41.0625},
            box={"z_auth": 1.25, "a_init": 2.75, "m_select": 0.5},
        ),
        tls_version="TLSv1.3",
        run_index=index,
        success=True,
        error="",
    )
    fields.update(overrides)
    return DohRaw(**fields)


def _do53(index: int = 0, **overrides) -> Do53Raw:
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.1.{}.9".format(index % 250),
        claimed_country="JP",
        qname="s1-{}.example.repro.net".format(index),
        dns_ms=17.015625 + index,
        headers=TimelineHeaders(tun={"dns": 17.015625}, box={}),
        resolved_at="9.9.9.9",
        run_index=index,
        success=index % 3 != 0,
        error="" if index % 3 != 0 else "timeout",
    )
    fields.update(overrides)
    return Do53Raw(**fields)


class TestSampleRoundTrip:
    def test_doh_do53_failures_round_trip_exactly(self):
        doh = [_doh(i) for i in range(7)]
        do53 = [_do53(i) for i in range(5)]
        failures = [
            NodeFailure(node_id="node-0003", error="refused", attempts=3),
        ]
        blob = pack_samples(doh, do53, failures)
        out_doh, out_do53, out_failures = unpack_samples(blob)
        assert out_doh == doh
        assert out_do53 == do53
        assert out_failures == failures

    def test_floats_are_bit_exact(self):
        ugly = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -1074, 1e308, 0.0]
        doh = [_doh(0, t_a=v, t_b=v * 3, t_c=v, t_d=v) for v in ugly]
        out, _, _ = unpack_samples(pack_samples(doh, [], []))
        for original, decoded in zip(doh, out):
            for name in ("t_a", "t_b", "t_c", "t_d"):
                a = getattr(original, name)
                b = getattr(decoded, name)
                assert math.copysign(1.0, a) == math.copysign(1.0, b)
                assert a == b

    def test_header_insertion_order_survives(self):
        # brightdata_ms sums box values; float addition is not
        # associative, so a codec that sorted keys could change the sum
        # by an ulp and break byte-identity downstream.
        raw = _doh(0)
        out, _, _ = unpack_samples(pack_samples([raw], [], []))
        assert list(out[0].headers.tun) == list(raw.headers.tun)
        assert list(out[0].headers.box) == list(raw.headers.box)
        assert out[0].headers.brightdata_ms == raw.headers.brightdata_ms

    def test_string_interning_deduplicates(self):
        # 100 samples from one node: the node id, country, provider and
        # header keys appear once in the blob, not 100 times — and the
        # whole blob undercuts the pickled dataclass transport it
        # replaced.
        import pickle

        doh = [_doh(0, run_index=i) for i in range(100)]
        blob = pack_samples(doh, [], [])
        assert blob.count(b"node-0000") == 1
        assert blob.count(b"cloudflare") == 1
        assert len(blob) < len(
            pickle.dumps(doh, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_failed_sample_fields_round_trip(self):
        raw = _doh(
            0, success=False, error="provider outage: SERVFAIL",
            tls_version="",
        )
        out, _, _ = unpack_samples(pack_samples([raw], [], []))
        assert out[0] == raw
        assert out[0].success is False

    def test_empty_blob_round_trips(self):
        assert unpack_samples(pack_samples([], [], [])) == ([], [], [])


class TestAtlasRoundTrip:
    def test_samples_round_trip(self):
        samples = [
            ("probe-{}".format(i), "BR", i, 12.345678901234 + i)
            for i in range(9)
        ]
        assert unpack_atlas_samples(pack_atlas_samples(samples)) == samples

    def test_empty(self):
        assert unpack_atlas_samples(pack_atlas_samples([])) == []


class TestMalformedBlobs:
    def test_bad_magic_rejected(self):
        with pytest.raises(WirepackError, match="magic"):
            unpack_samples(b"NOPE!" + b"\x00" * 16)

    def test_truncated_blob_rejected(self):
        blob = pack_samples([_doh(0)], [], [])
        with pytest.raises(WirepackError, match="truncated"):
            unpack_samples(blob[: len(blob) // 2] + b"\xff")

    def test_negative_run_index_rejected_at_pack_time(self):
        with pytest.raises(WirepackError, match="unsigned"):
            pack_samples([_doh(0, run_index=-1)], [], [])


class TestShardResultEnvelope:
    def test_shard_result_round_trips(self):
        result = ShardResult(
            shard_index=2,
            kept_doh=[_doh(i) for i in range(4)],
            kept_do53=[_do53(i) for i in range(3)],
            dropped_doh=5,
            dropped_do53=1,
            qname_map=[("q1.example", "10.0.0.1"), ("q2.example", "10.0.0.2")],
            client_entries=[("node-0001", "10.0.1.7", "DE")],
            geo_snapshot=None,
            failures=[NodeFailure("node-0009", "hung", 2)],
            metrics={"counters": {"campaign.measurements": 12}},
            traces=[{"node_id": "node-0001"}],
            resumed_batches=1,
            measured_batches=3,
        )
        packed = pack_shard_result(result)
        assert isinstance(packed, PackedShardResult)
        assert isinstance(packed.payload, bytes)
        restored = unpack_shard_result(packed)
        assert restored == result
