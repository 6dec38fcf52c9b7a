"""Append-only write-ahead journal for the ingestion service.

A :class:`ServiceJournal` is a directory (``results/journal/`` by
convention) holding one ``journal.jsonl`` file: one canonical-JSON record
per line, each embedding a checksum of its own body, following the
:mod:`repro.sim.store` conventions — corruption is detected, named, and
never silently recomputed over.

Record kinds, in the order a run writes them:

* ``config`` — first record; fingerprints everything that determines the
  run (params, seed coordinates, traffic model, block plan, family/kernel,
  workload digest).  Resume refuses a journal whose config does not match
  the invocation, so two different runs can never be spliced together.
* ``period`` — one per closed period: ``{"t": t, "estimate": a_hat[t],
  ...}``.  Floats travel through ``repr`` serialization, so a journaled
  estimate round-trips bit-identically.
* ``snapshot`` — every ``snapshot_every`` periods: the service state from
  :meth:`repro.sim.service.IngestionService.snapshot_state` — the closed
  period ``t``, the tree's ``2d - 1`` node sums, the online clock and
  report counter, the dedup memory (``seen``: base64 of the little-endian
  packed bits, one per node slot ``block * (2d - 1) + flat_offsets(d)[order]
  + index - 1``), the early-arrival buffer, and the delivery counters.  Its
  size is set by the tree and the block count, not by the messages folded
  so far.  The released prefix ``a_hat[1..t]`` is not repeated: recovery
  takes it from the period records, restores the latest snapshot, and
  re-serves only the remaining periods instead of refolding the whole
  stream.

This is schema 2 (:data:`JOURNAL_SCHEMA_VERSION`).  The schema lives in
the config record, so resuming a journal of another schema fails the
config gate with :class:`JournalError` rather than being misread.

Durability model: every append is flushed and fsynced before the caller
proceeds, so a kill can lose at most the record being written.  A torn
*final* line (the expected wreckage of a kill mid-append) is dropped during
recovery, and a final record that lost only its newline is kept and ended;
a bad record anywhere earlier raises
:class:`~repro.sim.store.ArtifactCorruptedError` — that is damage, not an
interrupted write.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from repro.sim.store import (
    ArtifactCorruptedError,
    ResultStoreError,
    canonical_json,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalRecord",
    "ServiceJournal",
]

#: Bump when the record layout changes; lives in the config record so an
#: incompatible journal is refused, never misread.
JOURNAL_SCHEMA_VERSION = 2


class JournalError(ResultStoreError):
    """A journal exists but cannot be used as requested.

    Raised for overwrite attempts without ``resume=True``, config
    mismatches, and resume streams that diverge from the journaled
    estimates — all operator-decision situations, distinct from the
    byte-level damage :class:`~repro.sim.store.ArtifactCorruptedError`
    reports.
    """


@dataclass(frozen=True)
class JournalRecord:
    """One verified journal line."""

    kind: str
    body: dict


def _record_checksum(kind: str, body: Any) -> str:
    return hashlib.sha256(
        canonical_json({"kind": kind, "body": body}).encode()
    ).hexdigest()


class ServiceJournal:
    """Directory-backed append-only journal (``<root>/journal.jsonl``)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        """The journal file."""
        return self.root / "journal.jsonl"

    def exists(self) -> bool:
        """Whether any journal has been started at this root."""
        return self.path.exists()

    def append(self, kind: str, body: dict) -> None:
        """Durably append one record (flushed and fsynced before returning)."""
        record = {
            "kind": kind,
            "body": body,
            "checksum": _record_checksum(kind, body),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> list[JournalRecord]:
        """Return every verified record, dropping a torn final line.

        A record that fails to parse or fails its checksum raises
        :class:`~repro.sim.store.ArtifactCorruptedError` — unless it is the
        *last* line, which is the expected remains of a kill mid-append and
        is recovered past silently.
        """
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []
        except OSError as error:
            raise ArtifactCorruptedError(
                f"journal {self.path} is unreadable ({error})"
            ) from error
        records: list[JournalRecord] = []
        for number, line in enumerate(lines):
            record = self._parse(line)
            if record is None:
                if number == len(lines) - 1:
                    break  # torn tail: the kill interrupted this append
                raise ArtifactCorruptedError(
                    f"journal record {number + 1} in {self.path} is corrupt "
                    "(bad JSON or checksum mismatch); the journal cannot be "
                    "trusted — delete it to start fresh"
                )
            records.append(record)
        return records

    def recover(self) -> list[JournalRecord]:
        """Read for resumption: verified records, torn tail truncated.

        :meth:`records` merely *skips* a torn final line; recovery must
        also cut it off the file, because the resumed run appends new
        records — and a record appended after leftover wreckage would turn
        the expected torn tail into mid-file corruption on the next
        recovery.  For the same reason a kept final record whose newline
        the kill cut off is ended here, before anything is appended after
        it on the same line.
        """
        records = self.records()
        if not self.exists():
            return records
        text = self.path.read_text(encoding="utf-8")
        lines = text.splitlines()
        if len(lines) > len(records):
            kept = "".join(line + "\n" for line in lines[: len(records)])
            mode = "w"
        elif text and not text.endswith("\n"):
            kept = "\n"
            mode = "a"
        else:
            return records
        with self.path.open(mode, encoding="utf-8") as handle:
            handle.write(kept)
            handle.flush()
            os.fsync(handle.fileno())
        return records

    @staticmethod
    def _parse(line: str) -> "JournalRecord | None":
        try:
            payload = json.loads(line)
        except ValueError:
            return None
        if not isinstance(payload, dict):
            return None
        if not {"kind", "body", "checksum"} <= set(payload):
            return None
        kind, body = payload["kind"], payload["body"]
        if not isinstance(kind, str) or not isinstance(body, dict):
            return None
        if payload["checksum"] != _record_checksum(kind, body):
            return None
        return JournalRecord(kind=kind, body=body)
