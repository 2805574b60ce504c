"""Fingerprint safety: a checkpoint may only resume its own campaign.

Resuming a ledger under a different config, seed, fault plan, or
execution shape would splice two different experiments into one
dataset, so every one of those must be caught *before* any measurement
happens.
"""

import dataclasses
import os

import pytest

from repro.ckpt import (
    CampaignCheckpoint,
    CheckpointError,
    CheckpointMismatchError,
    campaign_fingerprint,
)
from repro.ckpt.ledger import read_ledger
from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, NodeChurn
from repro.proxy.population import PopulationConfig


def small_config(seed=424, scale=0.005, **overrides):
    config = ReproConfig(
        seed=seed, population=PopulationConfig(scale=scale), batch_size=25
    )
    return dataclasses.replace(config, **overrides) if overrides else config


EXEC = {"mode": "parallel", "num_shards": 1}


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        assert campaign_fingerprint(small_config(), EXEC) == \
            campaign_fingerprint(small_config(), EXEC)

    def test_seed_changes_fingerprint(self):
        assert campaign_fingerprint(small_config(seed=424), EXEC) != \
            campaign_fingerprint(small_config(seed=425), EXEC)

    def test_fault_plan_changes_fingerprint(self):
        faulty = small_config(faults=FaultPlan(node_churn=NodeChurn()))
        assert campaign_fingerprint(small_config(), EXEC) != \
            campaign_fingerprint(faulty, EXEC)

    def test_fault_seed_changes_fingerprint(self):
        assert campaign_fingerprint(
            small_config(faults=FaultPlan(seed=1)), EXEC
        ) != campaign_fingerprint(
            small_config(faults=FaultPlan(seed=2)), EXEC
        )

    def test_execution_shape_changes_fingerprint(self):
        config = small_config()
        one_shard = campaign_fingerprint(config, EXEC)
        four_shards = campaign_fingerprint(
            config, {"mode": "parallel", "num_shards": 4}
        )
        assert one_shard != four_shards

    def test_execution_key_order_is_canonical(self):
        config = small_config()
        assert campaign_fingerprint(config, {"a": 1, "b": 2}) == \
            campaign_fingerprint(config, {"b": 2, "a": 1})


class TestResumeModes:
    def test_never_refuses_existing_checkpoint(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        CampaignCheckpoint.open(directory, small_config(), EXEC)
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.open(
                directory, small_config(), EXEC, resume="never"
            )

    def test_auto_adopts_matching_checkpoint(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        first = CampaignCheckpoint.open(directory, small_config(), EXEC)
        second = CampaignCheckpoint.open(
            directory, small_config(), EXEC, resume="auto"
        )
        assert second.fingerprint == first.fingerprint

    def test_auto_rejects_changed_seed(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        CampaignCheckpoint.open(directory, small_config(seed=424), EXEC)
        with pytest.raises(CheckpointMismatchError):
            CampaignCheckpoint.open(
                directory, small_config(seed=425), EXEC, resume="auto"
            )

    def test_auto_rejects_changed_fault_plan(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        CampaignCheckpoint.open(directory, small_config(), EXEC)
        with pytest.raises(CheckpointMismatchError):
            CampaignCheckpoint.open(
                directory,
                small_config(faults=FaultPlan(node_churn=NodeChurn())),
                EXEC,
                resume="auto",
            )

    def test_auto_rejects_changed_execution(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        CampaignCheckpoint.open(directory, small_config(), EXEC)
        with pytest.raises(CheckpointMismatchError):
            CampaignCheckpoint.open(
                directory,
                small_config(),
                {"mode": "parallel", "num_shards": 2},
                resume="auto",
            )

    def test_auto_rejects_changed_format(self, tmp_path, monkeypatch):
        # A checkpoint written before the ledger moved to wirepack
        # frames: its manifest and ledger header carry format 1, and
        # there is no reader for it.
        import repro.ckpt.checkpoint as checkpoint_mod
        import repro.ckpt.fingerprint as fingerprint_mod

        directory = str(tmp_path / "ckpt")
        with monkeypatch.context() as patch:
            patch.setattr(fingerprint_mod, "FORMAT_VERSION", 1)
            patch.setattr(checkpoint_mod, "FORMAT_VERSION", 1)
            old = CampaignCheckpoint.open(directory, small_config(), EXEC)
            unit = old.measure_checkpoint("shard-0")
            unit.prepare(None)
            unit.close()
        assert old.manifest["format"] == 1
        header = read_ledger(old.ledger_path("shard-0")).header
        assert header.payload["format"] == 1
        with pytest.raises(CheckpointMismatchError):
            CampaignCheckpoint.open(
                directory, small_config(), EXEC, resume="auto"
            )

    def test_force_discards_old_ledgers(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        old = CampaignCheckpoint.open(directory, small_config(seed=424),
                                      EXEC)
        stale = os.path.join(directory, "shard-0.ledger")
        with open(stale, "w") as handle:
            handle.write("stale journal\n")
        fresh = CampaignCheckpoint.open(
            directory, small_config(seed=425), EXEC, resume="force"
        )
        assert fresh.fingerprint != old.fingerprint
        assert not os.path.exists(stale)

    def test_stored_config_round_trips(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        config = small_config(faults=FaultPlan.chaos(seed=3))
        CampaignCheckpoint.open(directory, config, EXEC)
        assert CampaignCheckpoint.load(directory).stored_config() == config

    def test_invalid_resume_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignCheckpoint.open(
                str(tmp_path / "ckpt"), small_config(), EXEC,
                resume="sometimes",
            )
