"""Backend equivalence: reference is bit-exact, fast is law-equal.

Three layers of guarantee, mirroring the seeding contract in
:mod:`repro.kernels`:

1. ``kernel="reference"`` consumes the generator byte-for-byte like
   ``kernel=None`` at every seam (sampler, families, batch drivers, chunked
   accumulator, streaming session, trial runner) — the frozen references
   stay valid under explicit backend naming;
2. the fast kernel is deterministic given a seed, and invariant under the
   chunked/monolithic split in distribution (checked statistically);
3. the runner layer records the kernel in artifact keys only when
   non-default, and rejects kernels on non-kernel-aware protocols.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports, run_batch
from repro.protocols import get_protocol
from repro.sim.batch_engine import run_batch_engine
from repro.sim.runner import _params_payload, run_trials, sweep
from repro.workloads.generators import BoundedChangePopulation

PARAMS = ProtocolParams(n=600, d=32, k=3, epsilon=1.0)

FAMILIES = [
    FutureRandFamily(3, 1.0),
    BunComposedFamily(3, 1.0),
    CalibratedFutureRandFamily(3, 1.0),
]


@pytest.fixture(scope="module")
def states():
    return BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True).sample(
        PARAMS.n, np.random.default_rng(0)
    )


class TestReferenceBitIdentity:
    """``kernel="reference"`` == ``kernel=None``, byte for byte."""

    def test_sample_batch(self):
        law = AnnulusLaw.for_future_rand(6, 1.0)
        sampler = ComposedRandomizer(law)
        b = np.ones(6, dtype=np.int8)
        default = sampler.sample_batch(b, 500, np.random.default_rng(1))
        named = sampler.sample_batch(
            b, 500, np.random.default_rng(1), kernel="reference"
        )
        np.testing.assert_array_equal(default, named)

    @pytest.mark.parametrize(
        "family", FAMILIES, ids=[family.name for family in FAMILIES]
    )
    def test_randomize_matrix(self, family):
        matrix = np.zeros((200, 16), dtype=np.int8)
        matrix[:, 2] = 1
        matrix[:, 9] = -1
        default = family.randomize_matrix(matrix, np.random.default_rng(2))
        named = family.randomize_matrix(
            matrix, np.random.default_rng(2), kernel="reference"
        )
        np.testing.assert_array_equal(default, named)

    @pytest.mark.parametrize(
        "family", FAMILIES, ids=[family.name for family in FAMILIES]
    )
    def test_collect_tree_reports(self, states, family):
        default = collect_tree_reports(
            states, PARAMS, np.random.default_rng(3), family=family
        )
        named = collect_tree_reports(
            states, PARAMS, np.random.default_rng(3), family=family, kernel="reference"
        )
        for left, right in zip(default.node_sums, named.node_sums, strict=True):
            np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(default.orders, named.orders)

    def test_run_batch_engine(self, states):
        default = run_batch_engine(states, PARAMS, np.random.default_rng(4))
        named = run_batch_engine(
            states, PARAMS, np.random.default_rng(4), kernel="reference"
        )
        np.testing.assert_array_equal(default.estimates, named.estimates)

    def test_run_batch_engine_chunked(self, states):
        default = run_batch_engine(
            states, PARAMS, np.random.default_rng(5), chunk_size=100
        )
        named = run_batch_engine(
            states,
            PARAMS,
            np.random.default_rng(5),
            chunk_size=100,
            kernel="reference",
        )
        np.testing.assert_array_equal(default.estimates, named.estimates)

    def test_streaming_session(self, states):
        protocol = get_protocol("future_rand")
        results = []
        for kernel in (None, "reference"):
            session = protocol.prepare(
                PARAMS, np.random.default_rng(6), kernel=kernel
            )
            for t in range(1, PARAMS.d + 1):
                session.ingest(t, states[:, t - 1])
            results.append(session.result())
        np.testing.assert_array_equal(results[0].estimates, results[1].estimates)

    def test_run_trials(self, states):
        default = run_trials(None, states, PARAMS, trials=2, seed=11)
        named = run_trials(
            None, states, PARAMS, trials=2, seed=11, kernel="reference"
        )
        assert default == named


class TestFastKernelDeterminism:
    @pytest.mark.parametrize(
        "family", FAMILIES, ids=[family.name for family in FAMILIES]
    )
    def test_same_seed_same_output(self, states, family):
        first = run_batch(
            states, PARAMS, np.random.default_rng(7), family=family, kernel="fast"
        )
        second = run_batch(
            states, PARAMS, np.random.default_rng(7), family=family, kernel="fast"
        )
        np.testing.assert_array_equal(first.estimates, second.estimates)

    def test_streaming_matches_one_shot_distributionally(self, states):
        """Fast-kernel session runs end-to-end and produces sane estimates."""
        protocol = get_protocol("future_rand")
        session = protocol.prepare(PARAMS, np.random.default_rng(8), kernel="fast")
        for t in range(1, PARAMS.d + 1):
            session.ingest(t, states[:, t - 1])
        result = session.result()
        assert result.estimates.shape == (PARAMS.d,)
        assert np.isfinite(result.estimates).all()


class TestChunkedFastAgreement:
    """Chunked vs monolithic under the fast kernel: same law, both sane.

    Bit-identity is *not* promised across the chunk boundary change (the
    two consume different streams); instead both must track the true counts
    within the same statistical envelope.
    """

    @pytest.mark.parametrize("chunk_size", [None, 97])
    def test_error_within_envelope(self, states, chunk_size):
        from repro.analysis.bounds import hoeffding_radius

        family = FutureRandFamily(PARAMS.k, PARAMS.epsilon)
        bound = hoeffding_radius(PARAMS, family.c_gap, PARAMS.beta / PARAMS.d)
        worst = max(
            run_batch(
                states,
                PARAMS,
                np.random.default_rng(100 + trial),
                chunk_size=chunk_size,
                kernel="fast",
            ).max_abs_error
            for trial in range(3)
        )
        assert worst <= bound

    def test_chunk_size_invariance_fast(self, states):
        """Fast-kernel chunked runs are bit-identical across chunk sizes."""
        baseline = run_batch(
            states, PARAMS, np.random.default_rng(9), chunk_size=600, kernel="fast"
        )
        for chunk_size in (1, 97, 600, 10_000):
            result = run_batch(
                states,
                PARAMS,
                np.random.default_rng(9),
                chunk_size=chunk_size,
                kernel="fast",
            )
            np.testing.assert_array_equal(baseline.estimates, result.estimates)


class TestRunnerPlumbing:
    def test_artifact_key_omits_default_kernel(self):
        assert "kernel" not in _params_payload(PARAMS)
        assert "kernel" not in _params_payload(PARAMS, kernel="reference")
        assert "kernel" not in _params_payload(PARAMS, kernel=None)

    def test_artifact_key_records_non_default_kernel(self):
        payload = _params_payload(PARAMS, kernel="fast")
        assert payload["kernel"] == "fast"
        from repro.kernels import get_kernel

        assert _params_payload(PARAMS, kernel=get_kernel("fast"))["kernel"] == "fast"

    def test_run_trials_fast_kernel(self, states):
        statistics = run_trials(
            None, states, PARAMS, trials=2, seed=5, kernel="fast"
        )
        assert statistics.trials == 2
        assert np.isfinite(statistics.mean_max_abs)

    def test_run_trials_rejects_kernel_unaware_runner(self, states):
        with pytest.raises(ValueError, match="does not support kernel"):
            run_trials(
                "erlingsson", states, PARAMS, trials=1, seed=0, kernel="fast"
            )

    def test_run_trials_rejects_unknown_kernel(self, states):
        with pytest.raises(KeyError, match="unknown kernel"):
            run_trials(None, states, PARAMS, trials=1, seed=0, kernel="turbo")

    def test_sweep_fast_kernel_reproducible(self):
        tables = [
            sweep(
                ["future_rand", "bun_composed"],
                PARAMS,
                "k",
                [2, 3],
                trials=1,
                seed=3,
                kernel="fast",
            )
            for _ in range(2)
        ]
        assert tables[0].rows == tables[1].rows

    def test_sweep_fast_kernel_store_resume(self, tmp_path):
        from repro.sim.store import ResultStore

        store = ResultStore(tmp_path)
        common = dict(trials=1, seed=3, store=store, kernel="fast")
        first = sweep(None, PARAMS, "k", [2], **common)
        shards = store.shard_count()
        assert shards > 0
        resumed = sweep(None, PARAMS, "k", [2], **common)
        assert store.shard_count() == shards  # nothing recomputed
        assert first.rows == resumed.rows
        for body in store.iter_shards():
            assert body["key"]["params"]["kernel"] == "fast"
