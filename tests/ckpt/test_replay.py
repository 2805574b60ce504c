"""Ledger replay: committed batches come back field for field.

:meth:`MeasureCheckpoint.commit_batch` journals each batch as one
wirepack frame and :meth:`MeasureCheckpoint.prepare` replays it.  A
resumed dataset is byte-identical only if every replayed record equals
the measured one exactly — awkward doubles bit for bit (``-0.0`` keeps
its sign), timeline-header keys in insertion order (``brightdata_ms``
sums them, and float addition is not associative), failed samples and
``NodeFailure`` rows included.
"""

import math
import os

import pytest

from repro.ckpt.checkpoint import (
    CheckpointMismatchError,
    MeasureCheckpoint,
    read_sealed,
    write_sealed,
)
from repro.ckpt.ledger import LedgerWriter
from repro.core.campaign import Campaign, NodeFailure
from repro.core.config import ReproConfig
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.world import build_world
from repro.proxy.headers import TimelineHeaders
from repro.proxy.population import PopulationConfig

FINGERPRINT = "f" * 40
ROLE = "shard-0"


def _doh(index, **overrides):
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.0.{}.7".format(index),
        claimed_country="DE",
        provider="cloudflare",
        qname="s0-{}.example.repro.net".format(index),
        t_a=0.1 + 0.2,
        t_b=5e-324,
        t_c=-0.0,
        t_d=123456.789012345 + index,
        headers=TimelineHeaders(
            tun={"dns": 23.4375, "connect": 0.1 + 0.2},
            box={"z_auth": 1.25, "a_init": 5e-324, "m_select": -0.0},
        ),
        tls_version="TLSv1.3",
        run_index=index,
        success=True,
        error="",
    )
    fields.update(overrides)
    return DohRaw(**fields)


def _do53(index, **overrides):
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.1.{}.9".format(index),
        claimed_country="JP",
        qname="s1-{}.example.repro.net".format(index),
        dns_ms=0.1 + 0.2 + index,
        headers=TimelineHeaders(
            tun={"dns": 17.015625}, box={"b": 2.5, "a": -0.0}
        ),
        resolved_at="9.9.9.9",
        run_index=index,
        success=True,
        error="",
    )
    fields.update(overrides)
    return Do53Raw(**fields)


#: Two batches: the second holds a failed DoH sample, a failed Do53
#: sample and two NodeFailure rows.
BATCHES = [
    ([_doh(0), _doh(1)], [_do53(0)], []),
    (
        [
            _doh(2),
            _doh(3, success=False, error="provider outage: SERVFAIL",
                 tls_version="", t_c=0.0, t_d=0.0),
        ],
        [_do53(2, success=False, error="timeout", dns_ms=-0.0)],
        [
            NodeFailure(node_id="node-0007", error="churned", attempts=2),
            NodeFailure(node_id="node-0008", error="hung", attempts=1),
        ],
    ),
]


@pytest.fixture(scope="module")
def campaign():
    world = build_world(
        ReproConfig(seed=424, population=PopulationConfig(scale=0.004))
    )
    world.sim.run()  # drain the boot events: a batch boundary
    return Campaign(world, atlas_probes_per_country=0)


def _commit(directory, campaign, finish=False):
    checkpoint = MeasureCheckpoint(directory, ROLE, FINGERPRINT)
    assert checkpoint.prepare(campaign).batches_done == 0
    for index, (doh, do53, failures) in enumerate(BATCHES):
        checkpoint.commit_batch(campaign, index, doh, do53, failures)
    if finish:
        checkpoint.finish()
    checkpoint.close()


def _replay(directory, campaign):
    checkpoint = MeasureCheckpoint(directory, ROLE, FINGERPRINT)
    try:
        return checkpoint.prepare(campaign)
    finally:
        checkpoint.close()


def _floats(record):
    values = [
        getattr(record, name)
        for name in ("t_a", "t_b", "t_c", "t_d", "dns_ms")
        if hasattr(record, name)
    ]
    values += list(record.headers.tun.values())
    values += list(record.headers.box.values())
    # repr tells -0.0 from 0.0 and pins every bit of a finite double.
    return [(repr(value), math.copysign(1.0, value)) for value in values]


def _assert_same(replayed, measured):
    assert replayed == measured
    for got, want in zip(replayed, measured):
        assert _floats(got) == _floats(want)
        assert list(got.headers.tun) == list(want.headers.tun)
        assert list(got.headers.box) == list(want.headers.box)
        assert got.headers.brightdata_ms == want.headers.brightdata_ms


def test_committed_batches_replay_field_for_field(tmp_path, campaign):
    directory = str(tmp_path)
    _commit(directory, campaign)
    info = _replay(directory, campaign)

    assert info.batches_done == len(BATCHES)
    assert not info.complete
    _assert_same(info.doh, [raw for batch in BATCHES for raw in batch[0]])
    _assert_same(info.do53, [raw for batch in BATCHES for raw in batch[1]])
    assert info.failures == [f for batch in BATCHES for f in batch[2]]
    assert [raw.success for raw in info.doh] == [True, True, True, False]
    assert info.do53[-1].error == "timeout"


def test_finished_ledger_replays_complete(tmp_path, campaign):
    directory = str(tmp_path)
    _commit(directory, campaign, finish=True)
    info = _replay(directory, campaign)
    assert info.complete
    assert info.samples_replayed == 6


def test_batch_without_state_blob_is_rolled_back(tmp_path, campaign):
    # A crash between the ledger append and the state write: the state
    # blob still says one batch, so the second batch is re-measured.
    directory = str(tmp_path)
    _commit(directory, campaign)
    state_path = os.path.join(directory, ROLE + ".state")
    state = read_sealed(state_path)
    state["batches_done"] = 1
    write_sealed(state_path, state)
    info = _replay(directory, campaign)
    assert info.batches_done == 1
    _assert_same(info.doh, BATCHES[0][0])
    assert info.failures == []


def test_flipped_state_byte_loads_as_absent(tmp_path, campaign):
    directory = str(tmp_path)
    _commit(directory, campaign)
    state_path = os.path.join(directory, ROLE + ".state")
    blob = bytearray(open(state_path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    with open(state_path, "wb") as handle:
        handle.write(bytes(blob))
    assert read_sealed(state_path) is None
    # No usable state: start over rather than trust the journal alone.
    assert _replay(directory, campaign).batches_done == 0


def test_format_one_ledger_is_refused(tmp_path, campaign):
    path = os.path.join(str(tmp_path), ROLE + ".ledger")
    with LedgerWriter(path) as writer:
        writer.append("header", {"fingerprint": FINGERPRINT, "role": ROLE,
                                 "format": 1})
        writer.append("batch", {"through": 0, "batches": 1, "doh": [],
                                "do53": [], "fail": []})
    with pytest.raises(CheckpointMismatchError, match="format"):
        _replay(str(tmp_path), campaign)
