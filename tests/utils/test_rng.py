"""Tests for seeded generator management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, as_seed_sequence, spawn_generators


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence(self):
        sequence = np.random.SeedSequence(9)
        a = as_generator(np.random.SeedSequence(9)).random()
        b = as_generator(sequence).random()
        assert a == b


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 7)) == 7

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_reproducible_from_int(self):
        first = [g.random() for g in spawn_generators(5, 3)]
        second = [g.random() for g in spawn_generators(5, 3)]
        assert first == second

    def test_streams_differ(self):
        values = [g.random() for g in spawn_generators(5, 10)]
        assert len(set(values)) == 10

    def test_from_generator_is_deterministic_given_state(self):
        parent_a = np.random.default_rng(3)
        parent_b = np.random.default_rng(3)
        a = [g.random() for g in spawn_generators(parent_a, 2)]
        b = [g.random() for g in spawn_generators(parent_b, 2)]
        assert a == b


class TestAsSeedSequence:
    """The spawn-tree root every sharded, blocked or chunked path seeds from."""

    def test_reproducible_sequence_of_children(self):
        first, second = as_seed_sequence(1), as_seed_sequence(1)
        assert [
            np.random.default_rng(child).random() for child in first.spawn(4)
        ] == [np.random.default_rng(child).random() for child in second.spawn(4)]

    def test_reset_spawn_counter(self):
        root = as_seed_sequence(0)
        first = root.spawn(2)
        assert root.n_children_spawned == 2
        reset = as_seed_sequence(root, reset_spawn_counter=True)
        assert reset.n_children_spawned == 0
        assert [c.generate_state(2).tolist() for c in reset.spawn(2)] == [
            c.generate_state(2).tolist() for c in first
        ]
        assert as_seed_sequence(root) is root

    def test_children_independent(self):
        a, b = as_seed_sequence(0).spawn(2)
        assert np.random.default_rng(a).random() != np.random.default_rng(b).random()

    def test_from_generator_is_deterministic_given_state(self):
        a = as_seed_sequence(np.random.default_rng(3))
        b = as_seed_sequence(np.random.default_rng(3))
        assert isinstance(a, np.random.SeedSequence)
        assert a.entropy == b.entropy
