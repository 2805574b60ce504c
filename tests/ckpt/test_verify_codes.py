"""``repro ckpt verify`` exit codes: clean/stale/torn/corrupt.

The documented contract (docs/checkpointing.md): 0 = every ledger
checksums clean, 1 = structural staleness, 2 = crash-torn tail (safe
to resume), 3 = mid-file corruption (quarantine, never resume).  The
service supervisor and CI scripts branch on these codes, so they are
pinned here end to end through the CLI.
"""

import os
import shutil
import struct

import pytest

from repro.ckpt import (
    VERIFY_CLEAN,
    VERIFY_CORRUPT,
    VERIFY_STALE,
    VERIFY_TORN,
    CampaignCheckpoint,
    verify_checkpoint_dir,
)
from repro.ckpt.checkpoint import load_unit_result
from repro.ckpt.ledger import LedgerWriter
from repro.cli import main
from repro.core.config import ReproConfig
from repro.parallel.executor import run_parallel_campaign
from repro.proxy.population import PopulationConfig


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    """One small committed sharded checkpoint, copied per test."""
    directory = str(tmp_path_factory.mktemp("ckpt") / "clean")
    config = ReproConfig(
        seed=424,
        population=PopulationConfig(scale=0.004),
        batch_size=10,
    )
    run_parallel_campaign(
        config, workers=1, num_shards=2, atlas_probes_per_country=0,
        checkpoint_dir=directory, resume="auto",
    )
    return directory


@pytest.fixture()
def checkpoint(clean_checkpoint, tmp_path):
    copy = str(tmp_path / "ckpt")
    shutil.copytree(clean_checkpoint, copy)
    return copy


def first_ledger(directory):
    names = sorted(
        name for name in os.listdir(directory)
        if name.endswith(".ledger")
    )
    assert names
    return os.path.join(directory, names[0])


def test_clean_checkpoint_exits_zero(checkpoint):
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_CLEAN
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "clean"
    assert health.resumable
    assert not health.problems


def test_torn_tail_exits_two_and_is_resumable(checkpoint):
    with open(first_ledger(checkpoint), "ab") as handle:
        handle.write(b'{"k":"batch","n":9')  # crash mid-append
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_TORN
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "torn"
    assert health.resumable, "torn tails must stay resumable"


def test_mid_file_corruption_exits_three(checkpoint):
    ledger = first_ledger(checkpoint)
    with open(ledger, "r+b") as handle:
        handle.seek(os.path.getsize(ledger) // 2)
        handle.write(b"\xff")
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_CORRUPT
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "corrupt"
    assert not health.resumable, "corruption must never auto-resume"


def test_flipped_result_double_exits_one(checkpoint):
    # One flipped mantissa bit in a measured timing still unpickles
    # cleanly; only the blob's digest can tell the value is wrong.
    path = os.path.join(checkpoint, "shard-0.result")
    fingerprint = CampaignCheckpoint.load(checkpoint).fingerprint
    result = load_unit_result(path, fingerprint, "shard-0")
    value = result.kept_doh[0].t_d
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    # pickle stores a float as its 8 big-endian IEEE-754 bytes.
    at = blob.index(struct.pack(">d", value))
    blob[at + 7] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    assert load_unit_result(path, fingerprint, "shard-0") is None
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_STALE
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "stale"
    assert any("shard-0.result" in problem for problem in health.problems)


def test_foreign_fingerprint_exits_one(checkpoint):
    with LedgerWriter(
        os.path.join(checkpoint, "zz-foreign.ledger")
    ) as writer:
        writer.append("header", {"fingerprint": "0" * 32})
        writer.append("batch", {"index": 0})
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_STALE
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "stale"
    assert not health.resumable


def test_worst_finding_wins(checkpoint):
    # Stale + corrupt in one directory: the exit code reports the
    # most severe classification.
    with LedgerWriter(
        os.path.join(checkpoint, "zz-foreign.ledger")
    ) as writer:
        writer.append("header", {"fingerprint": "0" * 32})
        writer.append("batch", {"index": 0})
    ledger = first_ledger(checkpoint)
    with open(ledger, "r+b") as handle:
        handle.seek(os.path.getsize(ledger) // 2)
        handle.write(b"\xff")
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_CORRUPT
