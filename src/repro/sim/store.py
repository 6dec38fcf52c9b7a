"""Persistent, content-addressed result artifacts for sweeps and trials.

A :class:`ResultStore` is a directory (``results/`` by convention) holding two
kinds of JSON artifacts:

* **trial shards** (``shards/<key>.json``) — the per-trial error metrics of
  one ``(protocol, sweep point, trial chunk)`` unit of work, keyed by a
  SHA-256 digest of everything that determines the computation: protocol
  name, problem parameters, the exact ``SeedSequence`` path of the chunk,
  the trial indices, and a digest of the workload states.  Because the key
  is content-addressed, a resumed sweep recognises completed shards by
  construction — no run-id bookkeeping, no staleness heuristics.
* **tables** (``tables/<name>.json``) — merged :class:`ResultTable` outputs,
  reloadable with :meth:`ResultTable.from_json`.

Every artifact embeds a checksum of its own canonical body.  A file that
fails to parse or whose checksum disagrees raises
:class:`ArtifactCorruptedError` — corruption is *never* silently recomputed
over (an operator must delete the bad shard explicitly), and never crashes
with a raw ``JSONDecodeError`` deep inside a sweep.

Artifacts also record provenance that does not participate in the key: the
repository git SHA, wall-clock duration, worker count, and a creation
timestamp — enough to audit where any number in a merged table came from.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.sim.results import ResultTable

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCorruptedError",
    "ResultStoreError",
    "ResultStore",
    "ShardKey",
    "canonical_json",
    "merge_tables",
    "states_digest",
]

#: Bump when the artifact body layout changes; the schema version participates
#: in the shard key, so old artifacts are simply never matched (not misread).
ARTIFACT_SCHEMA_VERSION = 1


class ResultStoreError(RuntimeError):
    """Base class for result-store failures."""


class ArtifactCorruptedError(ResultStoreError):
    """An artifact file exists but cannot be trusted.

    Raised when a stored artifact fails JSON parsing, lacks required fields,
    or fails its embedded checksum.  Deliberately *not* treated as a cache
    miss: silent recomputation would mask disk corruption and could mix
    artifacts from incompatible runs into one table.
    """


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no whitespace).

    The canonical form is what shard keys and checksums are computed over;
    Python's ``repr``-based float serialization round-trips exactly, so
    metrics reloaded from an artifact are bit-identical to the computed ones.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def states_digest(states: np.ndarray) -> str:
    """SHA-256 fingerprint of a workload state matrix (shape, dtype, bytes)."""
    matrix = np.ascontiguousarray(states)
    hasher = hashlib.sha256()
    hasher.update(str(matrix.shape).encode())
    hasher.update(str(matrix.dtype).encode())
    hasher.update(matrix.tobytes())
    return hasher.hexdigest()


def _git_sha() -> str:
    """Best-effort repository SHA for provenance (never raises)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


@dataclass(frozen=True)
class ShardKey:
    """Everything that determines one trial shard's output, content-addressed.

    Two shards with equal keys are guaranteed to compute identical metrics
    (given the determinism contract of the spawn-tree seeding), so the key's
    digest doubles as the artifact filename and the resume criterion.
    """

    protocol: str
    params: Mapping[str, Union[int, float]]
    seed_entropy: int
    spawn_key: tuple
    #: The seed node's ``n_children_spawned`` *before* the trial children were
    #: spawned.  A caller-supplied ``SeedSequence`` that has already spawned
    #: children hands out different trial seeds than a fresh one with the same
    #: entropy/spawn_key — without this field those runs would collide on the
    #: same artifacts and resume would silently return the wrong metrics.
    seed_spawn_base: int
    trial_start: int
    trial_stop: int
    trials_total: int
    states_sha256: str
    schema: int = ARTIFACT_SCHEMA_VERSION

    def as_payload(self) -> dict[str, Any]:
        """JSON-serializable view (tuples become lists)."""
        return {
            "schema": self.schema,
            "protocol": self.protocol,
            "params": dict(self.params),
            "seed_entropy": self.seed_entropy,
            "spawn_key": list(self.spawn_key),
            "seed_spawn_base": self.seed_spawn_base,
            "trial_start": self.trial_start,
            "trial_stop": self.trial_stop,
            "trials_total": self.trials_total,
            "states_sha256": self.states_sha256,
        }

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical key payload — the artifact's identity."""
        return hashlib.sha256(canonical_json(self.as_payload()).encode()).hexdigest()


def _checksum(body: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


class ResultStore:
    """Directory-backed persistence for trial shards and merged tables.

    >>> import tempfile
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> table = ResultTable(title="demo", columns=["k"]); table.add_row(k=1)
    >>> path = store.save_table("demo", table)
    >>> ResultTable.from_json(path.read_text()).column("k")
    [1]
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def shards_dir(self) -> Path:
        """Directory holding trial-shard artifacts."""
        return self.root / "shards"

    @property
    def tables_dir(self) -> Path:
        """Directory holding merged result tables."""
        return self.root / "tables"

    # -- trial shards -----------------------------------------------------

    def shard_path(self, key: ShardKey) -> Path:
        """Filesystem location of the artifact for ``key``."""
        return self.shards_dir / f"{key.digest}.json"

    def write_shard(
        self,
        key: ShardKey,
        metrics: Mapping[str, Sequence[float]],
        *,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Persist one shard's per-trial metrics; returns the artifact path.

        The write is atomic (temp file + rename) so an interrupted run never
        leaves a half-written artifact to trip the corruption check later.
        """
        body = {
            "kind": "trial-shard",
            "key": key.as_payload(),
            "metrics": {name: list(map(float, column)) for name, column in metrics.items()},
            "meta": {"git_sha": _git_sha(), **(dict(meta) if meta else {})},
        }
        artifact = dict(body)
        artifact["checksum"] = _checksum(body)
        path = self.shard_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        tmp.replace(path)
        return path

    def load_shard(self, key: ShardKey) -> Optional[dict[str, Any]]:
        """Return the verified artifact body for ``key``, or ``None`` if absent.

        Raises :class:`ArtifactCorruptedError` if the file exists but is
        unreadable, structurally wrong, or fails its checksum.
        """
        path = self.shard_path(key)
        if not path.exists():
            return None
        return self._verify_artifact(path, expected_key=key)

    def _verify_artifact(
        self, path: Path, *, expected_key: Optional[ShardKey] = None
    ) -> dict[str, Any]:
        try:
            artifact = json.loads(path.read_text())
        except (OSError, ValueError) as error:  # JSONDecodeError, UnicodeDecodeError
            raise ArtifactCorruptedError(
                f"artifact {path} is not readable JSON ({error}); delete it to "
                "allow recomputation"
            ) from error
        if not isinstance(artifact, dict):
            raise ArtifactCorruptedError(
                f"artifact {path} is not a JSON object; delete it to allow "
                "recomputation"
            )
        stored_checksum = artifact.get("checksum")
        body = {name: value for name, value in artifact.items() if name != "checksum"}
        missing = {"kind", "key", "metrics", "meta"} - set(body)
        if missing or stored_checksum is None:
            raise ArtifactCorruptedError(
                f"artifact {path} is missing fields "
                f"{sorted(missing) + ([] if stored_checksum else ['checksum'])}; "
                "delete it to allow recomputation"
            )
        if _checksum(body) != stored_checksum:
            raise ArtifactCorruptedError(
                f"artifact {path} fails its checksum (file corrupted or "
                "hand-edited); delete it to allow recomputation"
            )
        if expected_key is not None and body["key"] != expected_key.as_payload():
            raise ArtifactCorruptedError(
                f"artifact {path} holds a different shard key than its "
                "filename implies; delete it to allow recomputation"
            )
        return body

    def iter_shards(self) -> Iterable[dict[str, Any]]:
        """Yield every verified shard body (corrupt files raise)."""
        if not self.shards_dir.exists():
            return
        for path in sorted(self.shards_dir.glob("*.json")):
            yield self._verify_artifact(path)

    def shard_count(self) -> int:
        """Number of shard artifact files currently on disk."""
        if not self.shards_dir.exists():
            return 0
        return sum(1 for _ in self.shards_dir.glob("*.json"))

    # -- merged tables ----------------------------------------------------

    def save_table(self, name: str, table: ResultTable) -> Path:
        """Persist a merged :class:`ResultTable` under ``tables/<name>.json``."""
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        path = self.tables_dir / f"{name}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(table.to_json())
        tmp.replace(path)
        return path

    def list_tables(self) -> list[str]:
        """Names of every stored table."""
        if not self.tables_dir.exists():
            return []
        return sorted(path.stem for path in self.tables_dir.glob("*.json"))


def _row_sort_key(row: Mapping[str, Any]) -> str:
    return canonical_json(row)


def merge_tables(tables: Sequence[ResultTable]) -> ResultTable:
    """Merge result tables into one canonical table, deduplicating rows.

    The merge is **commutative**, **idempotent** and **associative** by
    construction: columns are the sorted union, rows are deduplicated on
    their canonical JSON and emitted in canonical order, and titles/notes
    are the sorted union of their components (titles split on ``" + "``,
    notes on newlines, so merging an already-merged table re-dissolves into
    the same component set).  Merging artifacts produced by a resumed or
    sharded sweep therefore yields the same table regardless of arrival
    order or grouping, and re-merging an already-merged table is a no-op.
    """
    if not tables:
        raise ValueError("merge_tables needs at least one table")
    columns = sorted({column for table in tables for column in table.columns})
    seen: dict[str, dict[str, Any]] = {}
    for table in tables:
        for row in table.rows:
            seen.setdefault(_row_sort_key(row), dict(row))
    rows = [seen[key] for key in sorted(seen)]
    titles = {
        part for table in tables for part in table.title.split(" + ") if part
    }
    notes = {
        line for table in tables for line in table.notes.split("\n") if line
    }
    merged = ResultTable(
        title=" + ".join(sorted(titles)),
        columns=columns,
        notes="\n".join(sorted(notes)),
    )
    merged.rows = rows
    return merged
