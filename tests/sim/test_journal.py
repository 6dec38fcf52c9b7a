"""Write-ahead journal durability: round trips, torn tails, corruption.

The recovery story rests on three behaviors: every appended record reads
back verified; the expected wreckage of a kill (a torn *final* line) is
dropped silently; and damage anywhere earlier is loud — an
``ArtifactCorruptedError``, never a silent recompute.
"""

from __future__ import annotations

import json

import pytest

from repro.sim.journal import JournalRecord, ServiceJournal
from repro.sim.store import ArtifactCorruptedError


@pytest.fixture
def journal(tmp_path):
    return ServiceJournal(tmp_path / "journal")


def test_missing_journal_reads_empty(journal):
    assert not journal.exists()
    assert journal.records() == []


def test_append_read_round_trip(journal):
    journal.append("config", {"schema": 1, "seed": "abc"})
    journal.append("period", {"t": 1, "estimate": 0.123456789012345678})
    journal.append("snapshot", {"t": 1, "released": [0.1]})
    assert journal.exists()
    records = journal.records()
    assert [r.kind for r in records] == ["config", "period", "snapshot"]
    assert records[0] == JournalRecord(
        kind="config", body={"schema": 1, "seed": "abc"}
    )
    # Floats travel through repr serialization: bit-identical round trip.
    assert records[1].body["estimate"] == 0.123456789012345678


def test_torn_final_line_is_dropped(journal):
    journal.append("config", {"schema": 1})
    journal.append("period", {"t": 1, "estimate": 2.0})
    with journal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "period", "body": {"t": 2, "est')  # kill here
    records = journal.records()
    assert [r.kind for r in records] == ["config", "period"]
    assert records[-1].body["t"] == 1


def test_recover_truncates_the_torn_tail_before_new_appends(journal):
    journal.append("config", {"schema": 1})
    journal.append("period", {"t": 1, "estimate": 2.0})
    with journal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "period", "body": {"t": 2, "est')  # kill here
    records = journal.recover()
    assert [r.kind for r in records] == ["config", "period"]
    # The wreckage is gone, so the resumed run can append safely: without
    # the truncation this append would leave mid-file corruption.
    journal.append("period", {"t": 2, "estimate": 3.0})
    assert [r.body.get("t") for r in journal.records()] == [None, 1, 2]


def test_recover_on_a_clean_or_missing_journal_is_a_no_op(journal):
    assert journal.recover() == []
    journal.append("config", {"schema": 1})
    before = journal.path.read_bytes()
    assert [r.kind for r in journal.recover()] == ["config"]
    assert journal.path.read_bytes() == before


def test_earlier_corruption_is_loud(journal):
    journal.append("config", {"schema": 1})
    journal.append("period", {"t": 1, "estimate": 2.0})
    journal.append("period", {"t": 2, "estimate": 3.0})
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"t":1', '"t":7')  # checksum now stale
    assert '"t":7' in lines[1]
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactCorruptedError, match="record 2"):
        journal.records()


def test_tampered_body_fails_its_checksum(journal):
    journal.append("period", {"t": 1, "estimate": 2.0})
    journal.append("period", {"t": 2, "estimate": 3.0})
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(lines[0])
    payload["body"]["estimate"] = 99.0
    lines[0] = json.dumps(payload)
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactCorruptedError, match="checksum"):
        journal.records()


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2, 3]",  # not an object
        '{"kind": "x", "body": {}}',  # missing checksum
        '{"kind": 5, "body": {}, "checksum": "00"}',  # kind not a string
        '{"kind": "x", "body": [], "checksum": "00"}',  # body not a dict
    ],
)
def test_malformed_records_never_parse(journal, line):
    journal.append("config", {"schema": 1})
    journal.append("period", {"t": 1, "estimate": 2.0})
    original = journal.path.read_text(encoding="utf-8").splitlines()
    # As a torn tail: dropped.  Earlier: loud.
    journal.path.write_text(
        "\n".join([*original, line]) + "\n", encoding="utf-8"
    )
    assert len(journal.records()) == 2
    journal.path.write_text(
        "\n".join([original[0], line, original[1]]) + "\n", encoding="utf-8"
    )
    with pytest.raises(ArtifactCorruptedError):
        journal.records()


def test_recover_ends_a_final_record_that_lost_its_newline(journal):
    journal.append("config", {"schema": 1})
    journal.append("period", {"t": 1, "estimate": 2.0})
    text = journal.path.read_text(encoding="utf-8")
    journal.path.write_text(text[:-1], encoding="utf-8")  # kill before "\n"
    assert [r.kind for r in journal.recover()] == ["config", "period"]
    assert journal.path.read_text(encoding="utf-8") == text
    journal.append("period", {"t": 2, "estimate": 3.0})
    assert [r.body.get("t") for r in journal.records()] == [None, 1, 2]


def test_a_cut_anywhere_in_the_last_two_records_recovers_cleanly(journal):
    bodies = [{"schema": 1}] + [
        {"t": t, "estimate": t / 3} for t in range(1, 4)
    ]
    for position, body in enumerate(bodies):
        journal.append("config" if position == 0 else "period", body)
    data = journal.path.read_bytes()
    ends = [index for index, byte in enumerate(data) if byte == ord("\n")]
    tail_start = ends[-3] + 1
    extra = {"t": 4, "estimate": 4 / 3}
    for cut in range(tail_start, len(data) + 1):
        journal.path.write_bytes(data[:cut])
        # A record survives once its last byte before the newline is in.
        kept = sum(end <= cut for end in ends)
        recovered = journal.recover()
        assert [r.body for r in recovered] == bodies[:kept]
        journal.append("period", extra)
        assert [r.body for r in journal.records()] == [*bodies[:kept], extra]
