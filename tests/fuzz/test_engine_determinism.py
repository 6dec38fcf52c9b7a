"""Fuzzer determinism: the corpus is a pure function of (seed, budget).

The ISSUE-level contract: running the fuzzer twice with the same seed and
budget produces a byte-identical corpus, at any worker count; changing the
seed changes the search; the budget is an exact evaluation cap; and fault
genes are scored against the fault-adjusted radius (never the raw one).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.core.params import ProtocolParams
from repro.fuzz.corpus import FuzzCorpus, entry_from_record, replay_entry
from repro.fuzz.engine import (
    CHAOS_CAPABLE_TARGETS,
    FAULT_CAPABLE_TARGETS,
    FUZZ_TARGETS,
    build_runner,
    normalize_genome,
    run_fuzz,
)
from repro.fuzz.genome import random_genome
from repro.protocols import PROTOCOLS

_PARAMS = ProtocolParams(n=800, d=32, k=3, epsilon=1.0)


def _corpus_bytes(tmp_path: pathlib.Path, tag: str, outcome, top: int = 3):
    corpus = FuzzCorpus(tmp_path / tag)
    for record in outcome.ranked[:top]:
        corpus.write(entry_from_record(outcome, record))
    return {
        path.name: path.read_bytes()
        for path in sorted((tmp_path / tag).glob("*.json"))
    }


def test_corpus_is_byte_identical_across_worker_counts(tmp_path):
    blobs = {}
    for workers in (1, 2, 4):
        outcome = run_fuzz(
            "future_rand",
            _PARAMS,
            budget=10,
            seed=11,
            workers=workers,
            trials=2,
            population_size=4,
        )
        blobs[workers] = _corpus_bytes(tmp_path, f"w{workers}", outcome)
    assert blobs[1] == blobs[2] == blobs[4]
    assert len(blobs[1]) == 3


def test_rerun_is_fully_reproducible(tmp_path):
    outcomes = [
        run_fuzz(
            "future_rand",
            _PARAMS,
            budget=8,
            seed=3,
            trials=2,
            population_size=4,
        )
        for _ in range(2)
    ]
    assert outcomes[0].records == outcomes[1].records
    assert _corpus_bytes(tmp_path, "a", outcomes[0]) == _corpus_bytes(
        tmp_path, "b", outcomes[1]
    )


def test_different_seeds_explore_different_genomes():
    a = run_fuzz(
        "future_rand", _PARAMS, budget=6, seed=0, trials=1, population_size=4
    )
    b = run_fuzz(
        "future_rand", _PARAMS, budget=6, seed=999, trials=1, population_size=4
    )
    assert {r.genome.digest() for r in a.records} != {
        r.genome.digest() for r in b.records
    }


def test_budget_is_an_exact_evaluation_cap():
    for budget in (1, 5, 9):
        outcome = run_fuzz(
            "future_rand",
            _PARAMS,
            budget=budget,
            seed=2,
            trials=1,
            population_size=4,
        )
        assert outcome.evaluations == budget
        assert len(outcome.records) == budget


def test_evaluated_genomes_are_never_remeasured():
    outcome = run_fuzz(
        "future_rand", _PARAMS, budget=12, seed=5, trials=1, population_size=4
    )
    digests = [record.genome.digest() for record in outcome.records]
    assert len(digests) == len(set(digests))


def test_ranked_orders_by_fitness_then_digest():
    outcome = run_fuzz(
        "future_rand", _PARAMS, budget=8, seed=4, trials=1, population_size=4
    )
    keys = [(-r.fitness, r.genome.digest()) for r in outcome.ranked]
    assert keys == sorted(keys)


def test_fault_genes_are_scored_against_the_widened_radius():
    outcome = run_fuzz(
        "future_rand", _PARAMS, budget=10, seed=6, trials=1, population_size=4
    )
    c_gap = PROTOCOLS["future_rand"].c_gap(_PARAMS)
    base, _ = protocol_radius("future_rand", _PARAMS, c_gap)
    for record in outcome.records:
        expected = fault_adjusted_radius(
            base,
            _PARAMS,
            drop_rate=record.genome.drop_rate,
            duplicate_rate=record.genome.duplicate_rate,
        )
        assert record.base_radius == base
        assert record.radius == pytest.approx(expected)
        assert record.fitness == pytest.approx(
            record.observed_max_abs / expected
        )


def test_non_engine_targets_normalize_fault_genes_to_zero():
    outcome = run_fuzz(
        "erlingsson", _PARAMS, budget=6, seed=1, trials=1, population_size=4
    )
    for record in outcome.records:
        assert record.genome.drop_rate == 0.0
        assert record.genome.duplicate_rate == 0.0
        assert record.radius == record.base_radius
    rng = np.random.default_rng(0)
    genome = random_genome(rng, _PARAMS.k)
    while not genome.has_chaos:  # make the chaos tier observable
        genome = random_genome(rng, _PARAMS.k)
    for target in FUZZ_TARGETS:
        normalized = normalize_genome(genome, target)
        if target in CHAOS_CAPABLE_TARGETS:
            assert normalized == genome
        elif target in FAULT_CAPABLE_TARGETS:
            assert normalized == genome.without_chaos()
            assert normalized.drop_rate == genome.drop_rate
            assert normalized.duplicate_rate == genome.duplicate_rate
        else:
            assert normalized.drop_rate == 0.0
            assert normalized.duplicate_rate == 0.0
            assert not normalized.has_chaos


def test_service_target_evolves_and_replays_chaos_genes(tmp_path):
    """The chaos seam end-to-end: evolved faults, bit-identical replay.

    The service target must actually explore crash/hang/corrupt genes, and
    a corpus entry carrying them must replay to the recorded metrics —
    injected faults are recovered by supervision, so the measurement stays
    a pure function of the genome.
    """
    outcome = run_fuzz(
        "service", _PARAMS, budget=6, seed=21, trials=1, population_size=4
    )
    chaotic = [r for r in outcome.records if r.genome.has_chaos]
    assert chaotic, "the service target never drew a chaos gene"
    entry = entry_from_record(outcome, chaotic[0])
    corpus = FuzzCorpus(tmp_path)
    corpus.write(entry)
    (loaded,) = corpus.load_all()
    assert loaded == entry
    metrics = replay_entry(loaded)
    assert tuple(tuple(trial) for trial in metrics) == entry.metrics


def test_every_fuzz_target_runs_one_generation():
    for target in FUZZ_TARGETS:
        outcome = run_fuzz(
            target, _PARAMS, budget=2, seed=0, trials=1, population_size=4
        )
        assert outcome.evaluations == 2
        for record in outcome.records:
            assert record.radius > 0
            assert record.fitness >= 0


def test_argument_validation():
    with pytest.raises(ValueError, match="unknown fuzz target"):
        run_fuzz("not_a_protocol", _PARAMS, budget=1)
    with pytest.raises(ValueError, match="budget"):
        run_fuzz("future_rand", _PARAMS, budget=0)
    with pytest.raises(ValueError, match="trials"):
        run_fuzz("future_rand", _PARAMS, budget=1, trials=0)
    with pytest.raises(ValueError, match="population_size"):
        run_fuzz("future_rand", _PARAMS, budget=1, population_size=1)
    with pytest.raises(ValueError, match="kernel"):
        run_fuzz("naive_split", _PARAMS, budget=1, kernel="fast")


def test_build_runner_registry_fast_path_is_the_singleton():
    rng = np.random.default_rng(0)
    genome = normalize_genome(random_genome(rng, 3), "erlingsson")
    assert build_runner("erlingsson", genome, None) is PROTOCOLS["erlingsson"]
    clean = normalize_genome(random_genome(rng, 3), "naive_split")
    assert build_runner("future_rand", clean.without_faults(), None) is (
        PROTOCOLS["future_rand"]
    )
