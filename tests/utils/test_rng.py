"""Tests for seeded generator management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator, spawn_generators


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


class TestRngFactory:
    def test_reproducible_sequence_of_children(self):
        first, second = RngFactory(1), RngFactory(1)
        assert [first.make().random() for _ in range(4)] == [
            second.make().random() for _ in range(4)
        ]

    def test_spawned_counter(self):
        factory = RngFactory(0)
        for _ in range(4):
            factory.make()
        assert factory.spawned == 4

    def test_children_independent(self):
        factory = RngFactory(0)
        a, b = factory.make(), factory.make()
        assert a.random() != b.random()

    def test_stream_yields_generators(self):
        factory = RngFactory(0)
        stream = factory.stream()
        first = next(stream)
        second = next(stream)
        assert isinstance(first, np.random.Generator)
        assert first.random() != second.random()
