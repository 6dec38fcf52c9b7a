"""Registry contract: every registered protocol honours the unified API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.protocols import (
    PROTOCOLS,
    EstimatesNotReady,
    LongitudinalProtocol,
    get_protocol,
    list_protocols,
    resolve_runner,
)
from repro.workloads.generators import BoundedChangePopulation

TINY_PARAMS = ProtocolParams(n=120, d=8, k=2, epsilon=1.0)

#: The stable public names; removing or renaming one is a breaking API change.
EXPECTED_NAMES = {
    "future_rand",
    "future_rand_object",
    "bun_composed",
    "erlingsson",
    "naive_split",
    "naive_unsplit",
    "memoization",
    "offline_tree",
    "central_tree",
}

#: Protocols that accept populations changing more than ``k`` times: the
#: per-period randomized-response mechanisms never use the budget.  The
#: central tree is not among them: its noise scale is the sensitivity of a
#: user who changes at most ``k`` times.
BUDGET_FREE = {"naive_split", "naive_unsplit", "memoization"}


@pytest.fixture(scope="module")
def tiny_states() -> np.ndarray:
    population = BoundedChangePopulation(
        TINY_PARAMS.d, TINY_PARAMS.k, start_prob=0.3
    )
    return population.sample(TINY_PARAMS.n, np.random.default_rng(42))


class TestRegistryShape:
    def test_at_least_eight_protocols(self):
        assert len(PROTOCOLS) >= 8

    def test_names_stable(self):
        assert set(PROTOCOLS) == EXPECTED_NAMES

    def test_keys_match_instance_names(self):
        for name, protocol in PROTOCOLS.items():
            assert protocol.name == name

    def test_get_protocol_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="future_rand"):
            get_protocol("nope")

    def test_instances_are_singletons(self):
        assert get_protocol("future_rand") is get_protocol("future_rand")

    def test_repr_names_the_protocol(self):
        assert repr(get_protocol("future_rand")) == (
            "FutureRandProtocol(name='future_rand', privacy_model='local', "
            "online=True)"
        )

    def test_metadata_types(self):
        for protocol in PROTOCOLS.values():
            assert protocol.privacy_model in ("local", "central")
            assert isinstance(protocol.online, bool)
            assert isinstance(protocol.sequence_ldp, bool)
            assert protocol.description

    def test_capability_filters(self):
        assert list_protocols(privacy_model="central") == ["central_tree"]
        assert set(list_protocols(sequence_ldp=False)) == {
            "naive_unsplit",
            "memoization",
        }
        offline = list_protocols(online=False)
        assert offline == ["offline_tree"]
        everything = list_protocols()
        assert set(everything) == EXPECTED_NAMES


class TestResolveRunner:
    def test_resolves_name(self):
        name, runner = resolve_runner("erlingsson")
        assert name == "erlingsson"
        assert runner is get_protocol("erlingsson")

    def test_resolves_instance(self):
        protocol = get_protocol("memoization")
        name, runner = resolve_runner(protocol)
        assert (name, runner) == ("memoization", protocol)

    def test_passes_through_plain_callable(self):
        def my_runner(states, params, rng=None):
            raise NotImplementedError

        name, runner = resolve_runner(my_runner)
        assert name == "my_runner"
        assert runner is my_runner

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_runner(42)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_runner("not_a_protocol")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
class TestProtocolContract:
    """Each protocol must run, stream, and advertise honest capabilities."""

    def test_one_shot_run(self, name, tiny_states):
        protocol = get_protocol(name)
        result = protocol.run(tiny_states, TINY_PARAMS, np.random.default_rng(1))
        assert isinstance(result, ProtocolResult)
        assert result.estimates.shape == (TINY_PARAMS.d,)
        assert np.isfinite(result.estimates).all()
        assert np.array_equal(result.true_counts, tiny_states.sum(axis=0))

    def test_instance_is_a_runner_callable(self, name, tiny_states):
        result = get_protocol(name)(tiny_states, TINY_PARAMS, np.random.default_rng(2))
        assert np.isfinite(result.estimates).all()

    def test_streaming_lifecycle(self, name, tiny_states):
        protocol = get_protocol(name)
        session = protocol.prepare(TINY_PARAMS, np.random.default_rng(3))
        for t in range(1, TINY_PARAMS.d + 1):
            delivered = session.ingest(t, tiny_states[:, t - 1])
            assert delivered >= 0
            if protocol.online:
                released = session.estimates()
                assert released.shape == (t,)
                assert np.isfinite(released).all()
            elif t < TINY_PARAMS.d:
                with pytest.raises(EstimatesNotReady):
                    session.estimates()
        result = session.result()
        assert result.estimates.shape == (TINY_PARAMS.d,)
        assert np.isfinite(result.estimates).all()
        assert np.array_equal(result.true_counts, tiny_states.sum(axis=0))

    def test_session_exposes_params_and_clock(self, name, tiny_states):
        protocol = get_protocol(name)
        session = protocol.prepare(TINY_PARAMS, np.random.default_rng(4))
        assert session.params == TINY_PARAMS
        assert session.horizon == TINY_PARAMS.d
        assert session.period == 0
        for t in range(1, TINY_PARAMS.d + 1):
            session.ingest(t, tiny_states[:, t - 1])
            assert session.period == t
        result = session.result()
        # Offline sessions know their exact gap from prepare on, too.
        assert session.c_gap == result.c_gap == protocol.c_gap(TINY_PARAMS)
        assert session.family_name == result.family_name

    def test_session_c_gap_is_exact_at_every_period(self, name, tiny_states):
        """A caller may debias mid-run with ``session.c_gap``, so every
        session reports the protocol's exact gap before its horizon closes."""
        protocol = get_protocol(name)
        expected = protocol.c_gap(TINY_PARAMS)
        session = protocol.prepare(TINY_PARAMS, np.random.default_rng(5))
        assert session.c_gap == expected
        for t in range(1, TINY_PARAMS.d + 1):
            session.ingest(t, tiny_states[:, t - 1])
            assert session.c_gap == expected, f"period {t}"
        assert session.result().c_gap == expected

    def test_c_gap_and_communication_metadata(self, name):
        protocol = get_protocol(name)
        assert protocol.c_gap(TINY_PARAMS) > 0
        assert protocol.expected_report_bits(TINY_PARAMS) > 0
        capabilities = protocol.capabilities()
        assert capabilities["name"] == name

    def test_result_before_horizon_raises(self, name, tiny_states):
        session = get_protocol(name).prepare(TINY_PARAMS, np.random.default_rng(4))
        session.ingest(1, tiny_states[:, 0])
        with pytest.raises(EstimatesNotReady):
            session.result()

    def test_capabilities_are_the_boolean_metadata(self, name):
        """The ``repro protocols`` row carries exactly the Boolean metadata."""
        protocol = get_protocol(name)
        assert protocol.capabilities() == {
            "name": name,
            "privacy_model": protocol.privacy_model,
            "online": protocol.online,
            "sequence_ldp": protocol.sequence_ldp,
            "description": protocol.description,
            "supports_chunk_size": protocol.supports_chunk_size,
            "supports_kernel": protocol.supports_kernel,
        }

    def test_same_seed_is_bit_identical(self, name, tiny_states):
        protocol = get_protocol(name)
        first = protocol.run(tiny_states, TINY_PARAMS, np.random.default_rng(7))
        second = protocol.run(tiny_states, TINY_PARAMS, np.random.default_rng(7))
        assert np.array_equal(first.estimates, second.estimates)

    def test_session_rejects_wrong_shape(self, name):
        session = get_protocol(name).prepare(TINY_PARAMS, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            session.ingest(1, np.zeros(TINY_PARAMS.n + 1, dtype=np.int8))
        assert session.period == 0

    def test_session_rejects_non_boolean_values(self, name):
        session = get_protocol(name).prepare(TINY_PARAMS, np.random.default_rng(0))
        with pytest.raises(ValueError, match="0 or 1"):
            session.ingest(1, np.full(TINY_PARAMS.n, 2, dtype=np.int8))
        assert session.period == 0

    def test_session_periods_must_advance_in_order(self, name, tiny_states):
        session = get_protocol(name).prepare(TINY_PARAMS, np.random.default_rng(0))
        session.ingest(1, tiny_states[:, 0])
        with pytest.raises(ValueError, match="expected 2"):
            session.ingest(3, tiny_states[:, 2])
        with pytest.raises(ValueError, match="expected 2"):
            session.ingest(1, tiny_states[:, 0])

    def test_session_rejects_periods_past_the_horizon(self, name, tiny_states):
        session = get_protocol(name).prepare(TINY_PARAMS, np.random.default_rng(0))
        for t in range(1, TINY_PARAMS.d + 1):
            session.ingest(t, tiny_states[:, t - 1])
        with pytest.raises(ValueError, match="already elapsed"):
            session.ingest(TINY_PARAMS.d + 1, tiny_states[:, 0])

    def test_run_rejects_misshapen_states(self, name):
        protocol = get_protocol(name)
        for shape in ((TINY_PARAMS.n + 1, TINY_PARAMS.d), (TINY_PARAMS.n, 4)):
            with pytest.raises(ValueError, match="shape"):
                protocol.run(
                    np.zeros(shape, dtype=np.int8),
                    TINY_PARAMS,
                    np.random.default_rng(0),
                )

    def test_run_rejects_non_boolean_states(self, name):
        states = np.zeros((TINY_PARAMS.n, TINY_PARAMS.d), dtype=np.int8)
        states[0, -1] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            get_protocol(name).run(states, TINY_PARAMS, np.random.default_rng(0))

    def test_run_and_session_agree_on_the_change_budget(self, name):
        """Protocols that validate ``k`` reject a population that toggles
        every period, one-shot and streamed alike; the rest accept it on
        both paths."""
        protocol = get_protocol(name)
        toggling = np.tile(
            np.arange(1, TINY_PARAMS.d + 1) % 2, (TINY_PARAMS.n, 1)
        ).astype(np.int8)

        def stream():
            session = protocol.prepare(TINY_PARAMS, np.random.default_rng(0))
            for t in range(1, TINY_PARAMS.d + 1):
                session.ingest(t, toggling[:, t - 1])
            return session.result()

        def one_shot():
            return protocol.run(toggling, TINY_PARAMS, np.random.default_rng(0))

        for path in (stream, one_shot):
            if name in BUDGET_FREE:
                assert np.isfinite(path().estimates).all()
            else:
                with pytest.raises(ValueError, match="exceeding"):
                    path()


class TestSessionValidation:
    def test_periods_must_advance_in_order(self, tiny_states):
        session = get_protocol("future_rand").prepare(
            TINY_PARAMS, np.random.default_rng(0)
        )
        session.ingest(1, tiny_states[:, 0])
        with pytest.raises(ValueError, match="expected 2"):
            session.ingest(3, tiny_states[:, 2])
        with pytest.raises(ValueError, match="expected 2"):
            session.ingest(1, tiny_states[:, 0])

    def test_rejects_wrong_shape(self):
        session = get_protocol("future_rand").prepare(
            TINY_PARAMS, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="shape"):
            session.ingest(1, np.zeros(TINY_PARAMS.n + 1, dtype=np.int8))

    def test_rejects_non_boolean_values(self):
        session = get_protocol("future_rand").prepare(
            TINY_PARAMS, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="0 or 1"):
            session.ingest(1, np.full(TINY_PARAMS.n, 2, dtype=np.int8))

    def test_rejects_change_budget_violation(self):
        session = get_protocol("future_rand").prepare(
            TINY_PARAMS, np.random.default_rng(0)
        )
        # Everyone toggles every period: k=2 is exhausted at period 3.
        with pytest.raises(ValueError, match="exceeding k"):
            for t in range(1, TINY_PARAMS.d + 1):
                session.ingest(t, np.full(TINY_PARAMS.n, t % 2, dtype=np.int8))

    def test_too_many_periods_rejected(self, tiny_states):
        session = get_protocol("memoization").prepare(
            TINY_PARAMS, np.random.default_rng(0)
        )
        for t in range(1, TINY_PARAMS.d + 1):
            session.ingest(t, tiny_states[:, t - 1])
        with pytest.raises(ValueError):
            session.ingest(TINY_PARAMS.d + 1, tiny_states[:, 0])


class TestProtocolLikeConsumers:
    """The acceptance-criteria integration points."""

    def test_sweep_accepts_names(self):
        from repro.sim.runner import sweep

        params = ProtocolParams(n=150, d=16, k=2, epsilon=1.0)
        table = sweep(
            ["future_rand", "erlingsson"], params, "k", [1, 2], trials=1, seed=0
        )
        protocols = {row["protocol"] for row in table.rows}
        assert protocols == {"future_rand", "erlingsson"}

    def test_sweep_accepts_instances_and_callables_mixed(self):
        from repro.core.vectorized import run_batch
        from repro.sim.runner import sweep

        params = ProtocolParams(n=150, d=16, k=2, epsilon=1.0)
        table = sweep(
            {"ours": get_protocol("future_rand"), "legacy": run_batch},
            params,
            "k",
            [2],
            trials=1,
            seed=0,
        )
        assert {row["protocol"] for row in table.rows} == {"ours", "legacy"}

    def test_run_trials_accepts_name(self, tiny_states):
        from repro.sim.runner import run_trials

        stats = run_trials(
            "naive_unsplit", tiny_states, TINY_PARAMS, trials=2, seed=0
        )
        assert stats.mean_max_abs >= 0

    def test_scenario_run_by_protocol_name(self):
        from repro.workloads.scenarios import url_tracking_scenario

        scenario = url_tracking_scenario(
            n=200, d=16, k=3, rng=np.random.default_rng(5)
        )
        result = scenario.run(np.random.default_rng(6), protocol="memoization")
        assert result.family_name.startswith("memoization")
        assert result.estimates.shape == (16,)

    def test_scenario_streaming_callback_for_registered_protocol(self):
        from repro.workloads.scenarios import url_tracking_scenario

        scenario = url_tracking_scenario(
            n=200, d=16, k=3, rng=np.random.default_rng(5)
        )
        snapshots = []
        scenario.run(
            np.random.default_rng(6),
            protocol="erlingsson",
            callback=snapshots.append,
        )
        assert [snapshot.t for snapshot in snapshots] == list(range(1, 17))

    def test_cli_protocols_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        for name in EXPECTED_NAMES:
            assert name in output

    def test_cli_simulate(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "simulate", "--protocol", "naive_split",
                    "--n", "200", "--d", "16", "--k", "2",
                ]
            )
            == 0
        )
        assert "max |error|" in capsys.readouterr().out

    def test_protocol_subclass_needs_no_consumer_changes(self, tiny_states):
        """The plug-in seam: a brand-new protocol works everywhere at once."""
        from repro.protocols import RepeatedRRSession
        from repro.sim.runner import run_trials

        class HalfBudget(LongitudinalProtocol):
            name = "half_budget_rr"
            description = "test-only"

            def c_gap(self, params):
                return 1.0

            def prepare(self, params, rng=None):
                return RepeatedRRSession(
                    params, params.epsilon / 2.0, self.name, rng
                )

        stats = run_trials(
            HalfBudget(), tiny_states, TINY_PARAMS, trials=2, seed=0
        )
        assert np.isfinite(stats.mean_max_abs)
