"""The append-only, checksummed sample journal.

One ledger file per unit of resumable work (each measurement shard,
an extension delta).  The format is JSON Lines; every
line is one record::

    {"k": <kind>, "n": <seq>, "p": <payload>, "c": <checksum>}

* ``k`` — record kind (``header``, ``batch``, ``done``),
* ``n`` — sequence number, contiguous from 0 (the header),
* ``p`` — the payload (for ``batch``: the base64 wirepack frame of the
  batch's raw samples, see :mod:`repro.core.wirepack`),
* ``c`` — BLAKE2b digest over the canonical JSON of ``[k, n, p]``.

Appends are flushed and fsync'd before the writer reports the batch
committed, so a journal is always a prefix of what the campaign
measured.  Readers verify checksums and sequence contiguity:

* a corrupt or partial **final** record is a torn write from a crash —
  it is dropped and the file truncated back to the clean prefix,
* corruption **before** the final record means the file was damaged at
  rest — that raises :class:`CheckpointCorruptionError` instead of
  silently losing samples in the middle of a campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, List, Optional

__all__ = [
    "LedgerRecord",
    "LedgerWriter",
    "read_ledger",
    "truncate_ledger",
]


class CheckpointCorruptionError(Exception):
    """A ledger failed checksum or structural verification."""


def _canonical(kind: str, seq: int, payload: Any) -> bytes:
    return json.dumps(
        [kind, seq, payload], sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(kind: str, seq: int, payload: Any) -> str:
    return hashlib.blake2b(
        _canonical(kind, seq, payload), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One verified journal record."""

    kind: str
    seq: int
    payload: Any


@dataclass
class LedgerLoad:
    """The verified contents of one ledger file."""

    records: List[LedgerRecord]
    #: Byte length of the verified prefix (everything past it is torn).
    clean_bytes: int
    #: True when a torn/corrupt tail record was dropped during load.
    dropped_tail: bool
    #: End byte offset of each verified record (for prefix truncation).
    offsets: List[int]

    @property
    def header(self) -> Optional[LedgerRecord]:
        if self.records and self.records[0].kind == "header":
            return self.records[0]
        return None


class LedgerWriter:
    """Appends checksummed records, fsync'ing each commit."""

    def __init__(self, path: str, next_seq: int = 0) -> None:
        self.path = path
        self._seq = next_seq
        self._handle = open(path, "ab")

    def append(self, kind: str, payload: Any, fsync: bool = True) -> int:
        """Append one record; returns its sequence number."""
        seq = self._seq
        line = json.dumps(
            {
                "k": kind,
                "n": seq,
                "p": payload,
                "c": _checksum(kind, seq, payload),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
        self._seq = seq + 1
        return seq

    def close(self) -> None:
        """Close the journal file handle (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ledger(path: str) -> Optional[LedgerLoad]:
    """Load and verify a ledger; ``None`` when *path* does not exist.

    Only the final record may be torn (dropped silently — that is the
    crash the journal exists to survive); damage anywhere else raises
    :class:`CheckpointCorruptionError`.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None

    records: List[LedgerRecord] = []
    offsets: List[int] = []
    clean_bytes = 0
    dropped_tail = False
    offset = 0
    lines = blob.split(b"\n")
    # A well-formed file ends with a newline, so the final split piece
    # is empty; anything else is a partially-written last line.
    for index, line in enumerate(lines):
        if not line:
            offset += 1
            continue
        at_end = not any(lines[index + 1:])
        error = None
        try:
            data = json.loads(line.decode("utf-8"))
            kind = data["k"]
            seq = data["n"]
            payload = data["p"]
            if data["c"] != _checksum(kind, seq, payload):
                error = "checksum mismatch"
            elif seq != len(records):
                error = "sequence gap (expected {}, found {})".format(
                    len(records), seq
                )
            elif seq == 0 and kind != "header":
                error = "first record is {!r}, not a header".format(kind)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            error = "unparsable record ({})".format(exc)
        if error is not None:
            if at_end:
                dropped_tail = True
                break
            raise CheckpointCorruptionError(
                "{}: record {} is corrupt before the end of the journal: "
                "{}".format(path, len(records), error)
            )
        records.append(LedgerRecord(kind=kind, seq=seq, payload=payload))
        offset += len(line) + 1
        clean_bytes = offset
        offsets.append(offset)
    return LedgerLoad(
        records=records,
        clean_bytes=clean_bytes,
        dropped_tail=dropped_tail,
        offsets=offsets,
    )


def truncate_ledger(path: str, clean_bytes: int) -> None:
    """Cut *path* back to its first *clean_bytes* bytes (fsync'd), so
    the next writer appends after the clean prefix."""
    with open(path, "ab") as handle:
        handle.truncate(clean_bytes)
        handle.flush()
        os.fsync(handle.fileno())
