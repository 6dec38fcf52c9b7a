"""Unit tests for the hierarchical session's client side: orders, b~ and reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bounds import hoeffding_radius
from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.dyadic.prefix_matrix import flat_offsets
from repro.protocols import HierarchicalStreamingSession
from repro.workloads.generators import BoundedChangePopulation


def _session(n, d, k, epsilon, seed, **options) -> HierarchicalStreamingSession:
    params = ProtocolParams(n=n, d=d, k=k, epsilon=epsilon)
    return HierarchicalStreamingSession(
        params, FutureRandFamily(k, epsilon), np.random.default_rng(seed), **options
    )


class TestHierarchicalSession:
    def test_emission_schedule_follows_dyadic_clock(self):
        session = _session(64, 8, 2, 1.0, 3)
        orders = session._orders
        column = np.zeros(64, dtype=np.int8)
        for t in range(1, 9):
            expected = sum(
                int(np.count_nonzero(orders == order))
                for order in range(4)
                if t % (1 << order) == 0
            )
            assert session.ingest(t, column) == expected

    def test_reports_are_signs_and_cover_every_user(self):
        session = _session(200, 4, 2, 1.0, 4)
        column = np.ones(200, dtype=np.int8)
        delivered = [session.ingest(t, column) for t in range(1, 5)]
        # At t = d every order group closes an interval, so everyone reports.
        assert delivered[-1] == 200
        # Each closing node sums one {-1,+1} report per member of its group:
        # bounded by the group size and of the same parity.
        nodes = session._server.flat_node_values()
        for order, offset in enumerate(flat_offsets(4)):
            members = int(np.count_nonzero(session._orders == order))
            node = nodes[offset + (4 >> order) - 1]
            assert abs(node) <= members
            assert (node - members) % 2 == 0

    def test_signal_beats_noise_in_aggregate(self):
        n = 4_000
        session = _session(n, 2, 1, 8.0, 5)
        column = np.ones(n, dtype=np.int8)
        for t in (1, 2):
            session.ingest(t, column)
        # Everyone holds 1; the debiased estimates should be strongly positive.
        assert (session.estimates() > 0.2 * n).all()

    def test_sparsity_violation_raises(self):
        """The k-sparsity guard fires even if the change budget is bypassed:
        a user whose k noise coordinates are spent cannot report signal."""
        session = _session(32, 4, 1, 1.0, 6)
        session._nnz[:] = 1  # every user has already spent b~
        with pytest.raises(RuntimeError, match="k-sparsity"):
            session.ingest(1, np.ones(32, dtype=np.int8))

    def test_chunked_predraw_matches_unchunked_contract(self):
        """chunk_size bounds the pre-draw transients without changing the
        law: same orders (drawn before b~), same shape/support for b~."""
        whole = _session(500, 8, 3, 1.0, 7)
        chunked = _session(500, 8, 3, 1.0, 7, chunk_size=128)
        np.testing.assert_array_equal(whole._orders, chunked._orders)
        assert chunked._b_tilde.shape == whole._b_tilde.shape == (500, 3)
        assert np.isin(chunked._b_tilde, (-1, 1)).all()
        # Same per-coordinate sign law (4-sigma Monte-Carlo band).
        assert abs(
            chunked._b_tilde.mean() - whole._b_tilde.mean()
        ) < 4 * 2 / np.sqrt(1500)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="chunk_size"):
            _session(10, 4, 1, 1.0, 0, chunk_size=0)


@pytest.mark.parametrize(
    "options",
    [{}, {"chunk_size": 97}, {"kernel": "fast"}],
    ids=["default", "chunk_size", "fast"],
)
@pytest.mark.parametrize(
    "family_type",
    [FutureRandFamily, CalibratedFutureRandFamily, BunComposedFamily],
    ids=lambda family_type: family_type.name,
)
def test_every_composed_family_streams_through_the_session(family_type, options):
    """Each named family has an exact law, so the session runs it period by
    period under every option and its error stays inside Lemma 4.6's radius."""
    params = ProtocolParams(n=2_000, d=8, k=2, epsilon=1.0)
    family = family_type(params.k, params.epsilon)
    states = BoundedChangePopulation(params.d, params.k, start_prob=0.3).sample(
        params.n, np.random.default_rng(0)
    )
    session = HierarchicalStreamingSession(
        params, family, np.random.default_rng(1), **options
    )
    for t in range(1, params.d + 1):
        session.ingest(t, states[:, t - 1])
    result = session.result()
    assert (result.family_name, result.c_gap) == (family.name, family.c_gap)
    np.testing.assert_array_equal(result.true_counts, states.sum(axis=0))
    radius = hoeffding_radius(params, family.c_gap, params.beta / params.d)
    assert result.max_abs_error <= radius
