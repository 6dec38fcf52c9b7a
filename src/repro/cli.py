"""Command-line interface: run experiments, protocols, inspect constants.

Usage::

    repro list                      # show every experiment and its claim
    repro run E2 --scale small      # run one experiment, print its table
    repro run all --scale full      # regenerate everything (EXPERIMENTS.md)
    repro protocols                 # list the protocol registry
    repro protocols --online --privacy-model local
    repro simulate --protocol erlingsson --n 10000 --d 64 --k 4
    repro simulate --protocol future_rand --streaming   # drive the Session API
    repro cgap --k 64 --epsilon 1.0 # print exact randomizer constants
    repro sweep --protocols future_rand erlingsson --parameter k \\
        --values 2 8 32 --workers 4 --out results/ --resume
    repro sweep ... --kernel fast   # high-throughput randomizer backend
    repro bench --scale quick       # emit BENCH_kernels.json (perf trajectory)
    repro serve-sim --scenario flash_crowd --workers 2   # asyncio ingestion
    repro serve-sim --faults chaos --journal results/journal   # fault drill
    repro results show results/     # inspect persisted sweep artifacts
    repro results merge merged.json results/tables/*.json
    repro fuzz --protocol future_rand --budget 48 --corpus fuzz-out  # evolve
    repro fuzz --replay --corpus results/fuzz       # re-verify the pinned corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.annulus import AnnulusLaw
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.protocols import PROTOCOLS, get_protocol, list_protocols

__all__ = ["main", "build_parser"]

#: The committed fuzz corpus: ``fuzz --replay`` reads it by default, but a
#: search writes only into a ``--corpus`` that was named.
_PINNED_CORPUS = "results/fuzz"


def _check_capabilities(
    protocols: Union[str, Sequence[str]],
    *,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
    consistency: bool = False,
) -> bool:
    """Whether every protocol supports every flag that was given.

    ``protocols`` is one registry name (``simulate``) or several
    (``sweep``).  Called before any population is sampled; on the first
    unsupported flag it prints an ``error:`` line naming the protocols that
    do support it and returns False, and the command exits 2.
    """
    names = [protocols] if isinstance(protocols, str) else list(protocols)
    checks = (
        ("--chunk-size", chunk_size is not None, "chunk-aware",
         lambda protocol: protocol.supports_chunk_size),
        ("--kernel", kernel is not None, "kernel-aware",
         lambda protocol: protocol.supports_kernel),
        # WLS post-processing needs the raw dyadic node sums, which only the
        # future_rand tree driver exposes.
        ("--consistency", consistency, "consistency-aware",
         lambda protocol: protocol.name == "future_rand"),
    )
    for flag, given, label, supports in checks:
        unsupported = sorted({name for name in names if not supports(PROTOCOLS[name])})
        if not (given and unsupported):
            continue
        subject = (
            f"protocol {protocols!r} does"
            if isinstance(protocols, str)
            else f"{', '.join(unsupported)} do(es)"
        )
        aware = sorted(name for name, protocol in PROTOCOLS.items() if supports(protocol))
        print(
            f"error: {subject} not support {flag} "
            f"({label} protocols: {', '.join(aware)})",
            file=sys.stderr,
        )
        return False
    return True


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    from repro.kernels import available_kernels

    parser.add_argument(
        "--kernel",
        choices=available_kernels(),
        default=None,
        help="randomizer kernel backend (default: the bit-exact reference "
        "path; 'fast' is statistically identical and much faster — "
        "kernel-aware protocols only)",
    )


def _positive_int(text: str) -> int:
    """argparse type for knobs that must be strictly positive (e.g. chunk size)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts where 0 means "off" (e.g. progress lines)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _unit_rate(text: str) -> float:
    """argparse type for per-message traffic rates, which must lie in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a rate in [0, 1), got {text!r}"
        ) from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Randomize the Future' (PODS 2022).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list every experiment")

    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment", help="experiment id (E1..E10) or 'all'")
    run_parser.add_argument(
        "--scale", choices=("small", "full"), default="small",
        help="small: seconds; full: the EXPERIMENTS.md configuration",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--json", dest="json_dir", default=None,
        help="also write <id>.json result files into this directory",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="process count for sweep-backed experiments (E2-E5, E10); "
        "0 = one per available CPU; output is bit-identical for any count",
    )
    run_parser.add_argument(
        "--out", dest="store_dir", default=None,
        help="persist sweep trial chunks as resumable artifacts under this "
        "result-store directory (sweep-backed experiments only)",
    )

    cgap_parser = subparsers.add_parser(
        "cgap", help="print exact FutureRand constants for (k, epsilon)"
    )
    cgap_parser.add_argument("--k", type=int, required=True)
    cgap_parser.add_argument("--epsilon", type=float, default=1.0)

    verify_parser = subparsers.add_parser(
        "verify", help="verify every Appendix A.1 inequality at (k, epsilon)"
    )
    verify_parser.add_argument("--k", type=int, required=True)
    verify_parser.add_argument("--epsilon", type=float, default=1.0)

    communication_parser = subparsers.add_parser(
        "communication", help="per-user communication cost table"
    )
    communication_parser.add_argument("--d", type=int, default=256)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run one registered protocol on a generated workload"
    )
    simulate_parser.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default="future_rand",
    )
    simulate_parser.add_argument("--n", type=int, default=100_000)
    simulate_parser.add_argument("--d", type=int, default=256)
    simulate_parser.add_argument("--k", type=int, default=4)
    simulate_parser.add_argument("--epsilon", type=float, default=1.0)
    simulate_parser.add_argument("--seed", type=int, default=0)
    mode_group = simulate_parser.add_mutually_exclusive_group()
    mode_group.add_argument(
        "--consistency",
        action="store_true",
        help="apply WLS tree-consistency post-processing (future_rand only)",
    )
    mode_group.add_argument(
        "--streaming",
        action="store_true",
        help="drive the streaming Session API period by period (prints the "
        "online estimate trajectory)",
    )
    simulate_parser.add_argument(
        "--chunk-size", type=_positive_int, default=None,
        help="process users in chunks of this size (memory-bounded "
        "execution; chunk-aware protocols only)",
    )
    _add_kernel_argument(simulate_parser)

    protocols_parser = subparsers.add_parser(
        "protocols", help="list the protocol registry and its capabilities"
    )
    release_group = protocols_parser.add_mutually_exclusive_group()
    release_group.add_argument(
        "--online", action="store_true", help="only online-capable protocols"
    )
    release_group.add_argument(
        "--offline", action="store_true", help="only offline protocols"
    )
    protocols_parser.add_argument(
        "--privacy-model", choices=("local", "central"), default=None,
        help="filter by privacy model",
    )
    protocols_parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="sharded multi-protocol parameter sweep with persistent, "
        "resumable result artifacts",
    )
    sweep_parser.add_argument(
        "--protocols", nargs="+", default=["future_rand"],
        choices=sorted(PROTOCOLS), metavar="NAME",
        help=f"registry protocols to sweep (any of: {', '.join(sorted(PROTOCOLS))})",
    )
    sweep_parser.add_argument(
        "--parameter", choices=("n", "d", "k", "epsilon"), required=True,
        help="which parameter to vary",
    )
    sweep_parser.add_argument(
        "--values", nargs="+", type=float, required=True,
        help="sweep values for --parameter",
    )
    sweep_parser.add_argument("--n", type=int, default=4000)
    sweep_parser.add_argument("--d", type=int, default=64)
    sweep_parser.add_argument("--k", type=int, default=4)
    sweep_parser.add_argument("--epsilon", type=float, default=1.0)
    sweep_parser.add_argument("--trials", type=int, default=3)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0 = one per available CPU); any count "
        "produces bit-identical tables",
    )
    sweep_parser.add_argument(
        "--shard-size", type=int, default=None,
        help="trials per artifact shard (default: 1 when --out is given)",
    )
    sweep_parser.add_argument(
        "--chunk-size", type=_positive_int, default=None,
        help="bound each worker's peak memory by processing users in chunks "
        "of this size (chunk-aware protocols only; composes with --workers)",
    )
    sweep_parser.add_argument(
        "--out", dest="store_dir", default=None,
        help="result-store directory; every trial chunk is persisted as a "
        "content-addressed artifact and the merged table is saved",
    )
    sweep_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="skip shards whose artifacts already exist in --out "
        "(--no-resume recomputes and overwrites)",
    )
    _add_kernel_argument(sweep_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmark kernel backends (--mode kernels) or every registry "
        "protocol (--mode protocols) and emit the machine-readable "
        "BENCH_*.json perf-trajectory point",
    )
    bench_parser.add_argument(
        "--mode", choices=("kernels", "protocols"), default="kernels",
        help="kernels: randomizer backend speedups (default); protocols: "
        "per-protocol error/wall-clock/report-bits over a shared "
        "n/d/k/eps grid covering every PROTOCOLS entry",
    )
    bench_parser.add_argument(
        "--scale", choices=("smoke", "quick", "full"), default="quick",
        help="smoke: tiny CI sanity point; quick: the headline "
        "n=1e5/d=1024 point (default); full: headline + n/d/k grid",
    )
    bench_parser.add_argument(
        "--quick", action="store_const", const="quick", dest="scale",
        help="shorthand for --scale quick",
    )
    bench_parser.add_argument(
        "--full", action="store_const", const="full", dest="scale",
        help="shorthand for --scale full",
    )
    bench_parser.add_argument(
        "--out", default="BENCH_kernels.json",
        help="output JSON path (default: BENCH_kernels.json, retargeted to "
        "BENCH_protocols.json when --mode protocols is given without --out)",
    )
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--assert-speedup", choices=("auto", "on", "off"), default="auto",
        help="enforce the >=3x fast-kernel headline speedup floor: 'auto' "
        "(default) asserts only on hosts with more than one usable CPU "
        "(single-CPU containers time too noisily to gate on), 'on' always, "
        "'off' never; the JSON is emitted regardless",
    )

    from repro.workloads.scenarios import SCENARIOS
    from repro.workloads.traffic import TRAFFIC_MODELS

    serve_parser = subparsers.add_parser(
        "serve-sim",
        help="play a workload through the asyncio ingestion service under a "
        "traffic model (bursts, stragglers, duplicates, clock skew); "
        "prints live estimates mid-stream and a delivery summary",
    )
    serve_parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default=None,
        help="named scenario preset; unset -> a bounded-change population "
        "from --n/--d/--k/--epsilon",
    )
    serve_parser.add_argument(
        "--n", type=_positive_int, default=None,
        help="users (default 20000, or the scenario preset)",
    )
    serve_parser.add_argument(
        "--d", type=_positive_int, default=None,
        help="periods (default 256, or the scenario preset)",
    )
    serve_parser.add_argument(
        "--k", type=_positive_int, default=None,
        help="change budget (default 4, or the scenario preset)",
    )
    serve_parser.add_argument(
        "--epsilon", type=float, default=None,
        help="privacy budget (default 1.0, or the scenario preset)",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--traffic", choices=sorted(TRAFFIC_MODELS), default=None,
        help="traffic-model preset (default: the scenario's own model, or "
        "'uniform' fault-free delivery)",
    )
    serve_parser.add_argument(
        "--late-rate", type=_unit_rate, default=None,
        help="override the model's straggler rate",
    )
    serve_parser.add_argument(
        "--duplicate-rate", type=_unit_rate, default=None,
        help="override the model's retransmit-duplicate rate",
    )
    serve_parser.add_argument(
        "--drop-rate", type=_unit_rate, default=None,
        help="override the model's outright-loss rate",
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for block randomization; any count is "
        "bit-identical to serial",
    )
    serve_parser.add_argument(
        "--no-dedup", action="store_true",
        help="fold retransmit duplicates instead of discarding them at the "
        "deduplication seam (fault-impact studies)",
    )
    serve_parser.add_argument(
        "--progress", type=_non_negative_int, default=32,
        help="print a live estimate line every N closed periods "
        "(0 = summary only)",
    )

    from repro.faults import FAULT_MODELS

    serve_parser.add_argument(
        "--faults", choices=sorted(FAULT_MODELS), default=None,
        help="inject a deterministic fault model into block randomization "
        "(schedule drawn from the run's seed tree); recovered runs are "
        "bit-identical to fault-free ones",
    )
    serve_parser.add_argument(
        "--journal", default=None,
        help="write-ahead journal directory (e.g. results/journal); every "
        "released estimate and periodic state snapshot is persisted so a "
        "killed run can be resumed",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="recover an existing --journal instead of refusing to "
        "overwrite it; the resumed stream is bit-identical",
    )

    results_parser = subparsers.add_parser(
        "results", help="inspect and merge persisted result artifacts"
    )
    results_sub = results_parser.add_subparsers(dest="results_command", required=True)
    show_parser = results_sub.add_parser(
        "show", help="summarize a result store or print a stored table"
    )
    show_parser.add_argument(
        "path", help="a result-store directory or a table JSON file"
    )
    merge_parser = results_sub.add_parser(
        "merge", help="merge result tables into one deduplicated table"
    )
    merge_parser.add_argument("output", help="output JSON path for the merged table")
    merge_parser.add_argument(
        "inputs", nargs="+", help="table JSON files (or store table paths) to merge"
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="evolve adversarial workloads against a protocol's conformance "
        "bound and pin the worst survivors as replayable corpus entries",
    )
    from repro.fuzz.engine import FUZZ_TARGETS

    fuzz_parser.add_argument(
        "--protocol", choices=FUZZ_TARGETS, default="future_rand",
        help="registry protocol to fuzz (default: future_rand)",
    )
    fuzz_parser.add_argument(
        "--budget", type=_positive_int, default=48,
        help="total protocol evaluations to spend (duplicate genomes are "
        "cached and cost nothing)",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for genome evaluation (0 = one per available "
        "CPU); the corpus is byte-identical for any count",
    )
    fuzz_parser.add_argument("--trials", type=_positive_int, default=3)
    fuzz_parser.add_argument(
        "--population", type=_positive_int, default=8,
        help="genomes per generation",
    )
    fuzz_parser.add_argument(
        "--survivors", type=_positive_int, default=3,
        help="top genomes written to the corpus",
    )
    fuzz_parser.add_argument("--n", type=int, default=4000)
    fuzz_parser.add_argument("--d", type=int, default=64)
    fuzz_parser.add_argument("--k", type=int, default=4)
    fuzz_parser.add_argument("--epsilon", type=float, default=1.0)
    fuzz_parser.add_argument(
        "--corpus", default=None,
        help="corpus directory; a search needs one, --replay defaults to the "
        f"pinned {_PINNED_CORPUS}",
    )
    fuzz_parser.add_argument(
        "--replay", action="store_true",
        help="skip the search: reload every corpus entry, replay it, and "
        "fail (exit 1) on bit-drift with its recorded kernel or a bound "
        "violation",
    )
    _add_kernel_argument(fuzz_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the determinism contracts (seed tree, picklability, "
        "capability metadata) with the repro.lint rule registry",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


def _command_list() -> int:
    for spec in EXPERIMENTS.values():
        print(f"{spec.experiment_id:4s} {spec.title}")
        print(f"     {spec.paper_claim}")
    return 0


def _command_run(
    experiment: str,
    scale: str,
    seed: int,
    json_dir: Optional[str],
    workers: int = 1,
    store_dir: Optional[str] = None,
) -> int:
    import inspect

    from repro.sim.parallel import default_workers
    from repro.sim.store import ResultStore

    workers = workers if workers > 0 else default_workers()
    store = ResultStore(store_dir) if store_dir else None
    ids = sorted(EXPERIMENTS) if experiment.lower() == "all" else [experiment]
    for experiment_id in ids:
        spec = get_experiment(experiment_id)
        # Only the sweep-backed experiments take the scaling knobs; forward
        # them exactly where the signature advertises support.
        accepted = inspect.signature(spec.run).parameters
        extras = {}
        if "workers" in accepted:
            extras["workers"] = workers
        if "store" in accepted:
            extras["store"] = store
        table = spec.run(scale=scale, seed=seed, **extras)
        print(table.to_markdown())
        print()
        if json_dir is not None:
            directory = Path(json_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{spec.experiment_id}.json"
            path.write_text(table.to_json())
            print(f"(wrote {path})")
    return 0


def _command_cgap(k: int, epsilon: float) -> int:
    law = AnnulusLaw.for_future_rand(k, epsilon)
    payload = {
        "k": k,
        "epsilon": epsilon,
        "eps_tilde": law.eps_tilde,
        "flip_probability": law.flip_probability,
        "annulus": [law.lo, law.hi],
        "real_bounds": list(law.real_bounds),
        "c_gap": law.c_gap,
        "c_gap_normalized": law.c_gap * (k**0.5) / epsilon,
        "privacy_log_ratio": law.privacy_log_ratio(),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _command_verify(k: int, epsilon: float) -> int:
    from repro.analysis.appendix_checks import verification_report

    print(verification_report(k, epsilon).to_markdown())
    return 0


def _command_communication(d: int) -> int:
    from repro.analysis.communication import communication_table
    from repro.core.params import ProtocolParams

    params = ProtocolParams(n=1, d=d, k=1, epsilon=1.0)
    print(communication_table(params).to_markdown())
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.conformance import protocol_radius
    from repro.core.params import ProtocolParams
    from repro.utils.rng import spawn_generators
    from repro.workloads.generators import BoundedChangePopulation

    if not _check_capabilities(
        args.protocol,
        chunk_size=args.chunk_size,
        kernel=args.kernel,
        consistency=args.consistency,
    ):
        return 2
    name, n, d = args.protocol, args.n, args.d
    params = ProtocolParams(n=n, d=d, k=args.k, epsilon=args.epsilon)
    protocol = get_protocol(name)
    workload_rng, protocol_rng = spawn_generators(
        np.random.SeedSequence(args.seed), 2
    )
    population = BoundedChangePopulation(d, args.k, start_prob=0.3)
    extras = {
        key: value
        for key, value in (("chunk_size", args.chunk_size), ("kernel", args.kernel))
        if value is not None
    }

    if args.streaming:
        states = population.sample(n, workload_rng)
        session = protocol.prepare(params, protocol_rng, **extras)
        checkpoints = {max(1, (d * i) // 8) for i in range(1, 9)}
        print(f"streaming {name} over {d} periods (n={n:,})")
        if not protocol.online:
            print(
                f"  ({name} is offline: estimates are released only after "
                f"the full horizon)"
            )
        for t in range(1, d + 1):
            session.ingest(t, states[:, t - 1])
            if t in checkpoints and protocol.online:
                estimate = session.estimates()[-1]
                true = states[:, t - 1].sum()
                print(
                    f"  t={t:5d}  estimate={estimate:12,.0f}  "
                    f"true={true:10,d}  error={estimate - true:+10,.0f}"
                )
        result = session.result()
    else:
        # With --chunk-size the (n, d) matrix is never materialized: the
        # population streams straight into the chunked aggregators (memory
        # is bounded by the chunk, generation included).
        states = (
            population.sample(n, workload_rng)
            if args.chunk_size is None
            else population.sample_chunks(n, args.chunk_size, workload_rng)
        )
        if args.consistency:
            # The one path outside the registry: WLS needs the node sums.
            from repro.core.vectorized import collect_tree_reports
            from repro.postprocess.consistency import consistent_result

            result = consistent_result(
                collect_tree_reports(states, params, protocol_rng, **extras)
            )
        else:
            result = protocol.run(states, params, protocol_rng, **extras)

    radius, failure = protocol_radius(name, params, result.c_gap)
    print(f"protocol:     {name} ({result.family_name})")
    print(
        f"capabilities: privacy_model={protocol.privacy_model} "
        f"online={protocol.online} sequence_ldp={protocol.sequence_ldp}"
    )
    print(f"parameters:   n={n:,} d={d} k={args.k} epsilon={args.epsilon}")
    print(
        f"max |error|:  {result.max_abs_error:,.1f}  "
        f"({result.max_abs_error / n:.2%} of n)"
    )
    print(f"mean |error|: {result.mean_abs_error:,.1f}")
    print(f"radius:       {radius:,.1f}  (exceeded w.p. <= {failure:g})")
    print(f"exp. bits/user: {protocol.expected_report_bits(params):,.1f}")
    return 0


def _command_protocols(
    online_only: bool,
    offline_only: bool,
    privacy_model: Optional[str],
    as_json: bool,
) -> int:
    from repro.sim.results import ResultTable

    online: Optional[bool] = None
    if online_only:
        online = True
    elif offline_only:
        online = False
    names = list_protocols(online=online, privacy_model=privacy_model)
    listing = [PROTOCOLS[name].capabilities() for name in sorted(names)]
    if as_json:
        print(json.dumps(listing, indent=2))
        return 0
    table = ResultTable(
        title=f"Protocol registry ({len(listing)} of {len(PROTOCOLS)} protocols)",
        columns=["name", "privacy_model", "online", "sequence_ldp", "description"],
    )
    for row in listing:
        table.add_row(
            name=row["name"],
            privacy_model=row["privacy_model"],
            online="yes" if row["online"] else "no",
            sequence_ldp="yes" if row["sequence_ldp"] else "NO",
            description=row["description"],
        )
    print(table.to_markdown())
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.core.params import ProtocolParams
    from repro.sim.parallel import default_workers
    from repro.sim.runner import sweep
    from repro.sim.store import ResultStore, canonical_json

    import hashlib

    workers = args.workers if args.workers > 0 else default_workers()
    store = ResultStore(args.store_dir) if args.store_dir else None
    base_params = ProtocolParams(n=args.n, d=args.d, k=args.k, epsilon=args.epsilon)
    # Validated up front: a mid-sweep ValueError should surface as a
    # traceback (it is a bug), not masquerade as an argument error.
    if not _check_capabilities(
        args.protocols, chunk_size=args.chunk_size, kernel=args.kernel
    ):
        return 2
    shards_before = store.shard_count() if store is not None else 0
    try:
        table = sweep(
            list(args.protocols),
            base_params,
            args.parameter,
            args.values,
            trials=args.trials,
            seed=args.seed,
            workers=workers,
            shard_size=args.shard_size,
            store=store,
            resume=args.resume,
            chunk_size=args.chunk_size,
            kernel=args.kernel,
            title=(
                f"sweep over {args.parameter} "
                f"({', '.join(args.protocols)}; trials={args.trials}, "
                f"seed={args.seed})"
            ),
        )
    except TypeError as error:
        # Non-runner specs are rejected by resolve_runner before any worker
        # starts; surface that as a readable argument error, not a mid-run
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(table.to_markdown())
    if store is not None:
        config = {
            "protocols": sorted(args.protocols),
            "parameter": args.parameter,
            "values": list(args.values),
            "params": [args.n, args.d, args.k, args.epsilon],
            "trials": args.trials,
            "seed": args.seed,
        }
        slug = hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]
        name = f"sweep-{args.parameter}-{slug}"
        path = store.save_table(name, table)
        shards_after = store.shard_count()
        print()
        print(
            f"(store: {shards_after} shard artifacts, "
            f"{shards_after - shards_before} new this run; table -> {path})"
        )
    return 0


def _command_bench(
    scale: str, out: str, seed: int, assert_speedup: str, mode: str = "kernels"
) -> int:
    from repro.bench import (
        HEADLINE_SPEEDUP_FLOOR,
        format_bench_table,
        format_protocol_bench_table,
        run_kernel_bench,
        run_protocol_bench,
        write_bench_report,
    )
    from repro.sim.parallel import default_workers

    if mode == "protocols":
        if out == "BENCH_kernels.json":  # the --out default; retarget per mode
            out = "BENCH_protocols.json"
        payload = run_protocol_bench(scale=scale, seed=seed)
        path = write_bench_report(payload, out)
        print(format_protocol_bench_table(payload))
        print(f"(wrote {path})")
        return 0

    payload = run_kernel_bench(scale=scale, seed=seed)
    path = write_bench_report(payload, out)
    print(format_bench_table(payload))
    print(f"(wrote {path})")

    if assert_speedup == "off":
        return 0
    if assert_speedup == "auto" and default_workers() <= 1:
        # Single-CPU hosts (like the dev container) time too noisily to gate
        # on; the measurement is still emitted for the trajectory.
        print(
            "(speedup floor not enforced: only one usable CPU; "
            "pass --assert-speedup on to force)"
        )
        return 0
    headline = payload.get("headline_speedup")
    if headline is None:
        # Smaller scales than the headline grid cannot prove the floor; an
        # explicit 'on' means the caller wanted it proved, so fail loudly.
        if assert_speedup == "on":
            print(
                f"error: scale {scale!r} did not measure the headline point, "
                "so the speedup floor cannot be asserted",
                file=sys.stderr,
            )
            return 1
        return 0
    if headline < HEADLINE_SPEEDUP_FLOOR:
        print(
            f"error: fast kernel speedup {headline:.2f}x is below the "
            f"{HEADLINE_SPEEDUP_FLOOR:.1f}x floor at the headline point",
            file=sys.stderr,
        )
        return 1
    print(
        f"(speedup floor satisfied: {headline:.2f}x >= "
        f"{HEADLINE_SPEEDUP_FLOOR:.1f}x)"
    )
    return 0


def _command_serve_sim(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.conformance import (
        fault_adjusted_radius,
        protocol_radius,
    )
    from repro.core.params import ProtocolParams
    from repro.sim.service import run_service
    from repro.workloads.generators import BoundedChangePopulation
    from repro.workloads.scenarios import SCENARIOS
    from repro.workloads.traffic import TRAFFIC_MODELS

    if args.scenario:
        factory = SCENARIOS[args.scenario]
        overrides = {
            name: value
            for name, value in (
                ("n", args.n), ("d", args.d), ("k", args.k),
                ("epsilon", args.epsilon),
            )
            if value is not None
        }
        scenario = factory(rng=np.random.default_rng(args.seed), **overrides)
        workload = scenario.states
        params = scenario.params
        traffic = scenario.traffic
        label = scenario.name
    else:
        params = ProtocolParams(
            n=args.n if args.n is not None else 20_000,
            d=args.d if args.d is not None else 256,
            k=args.k if args.k is not None else 4,
            epsilon=args.epsilon if args.epsilon is not None else 1.0,
        )
        # The Population path: workers sample their own seed blocks, so the
        # full (n, d) matrix never materializes in one process.
        workload = BoundedChangePopulation(params.d, params.k, exact_k=True)
        traffic = None
        label = "bounded_change"

    if args.traffic is not None:
        traffic = TRAFFIC_MODELS[args.traffic]
    if traffic is None:
        traffic = TRAFFIC_MODELS["uniform"]
    traffic = traffic.with_rates(
        late_rate=args.late_rate,
        duplicate_rate=args.duplicate_rate,
        drop_rate=args.drop_rate,
    )

    print(
        f"serving {label}: n={params.n:,} d={params.d} k={params.k} "
        f"epsilon={params.epsilon} traffic={traffic.name} "
        f"workers={args.workers} dedup={'off' if args.no_dedup else 'on'}"
    )
    progress = args.progress

    def callback(snapshot) -> None:
        if progress and (
            snapshot.t % progress == 0 or snapshot.t == params.d
        ):
            print(
                f"  t={snapshot.t:>4}  estimate={snapshot.estimate:>12.1f}  "
                f"true={snapshot.true_count:>8}  "
                f"reports={snapshot.reports_this_period}"
            )

    from repro.sim.journal import JournalError
    from repro.sim.store import ArtifactCorruptedError

    try:
        result = run_service(
            workload,
            params,
            args.seed,
            traffic=traffic,
            workers=args.workers,
            reject_duplicates=not args.no_dedup,
            callback=callback if progress else None,
            faults=args.faults,
            journal=args.journal,
            resume=args.resume,
        )
    except (JournalError, ArtifactCorruptedError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    stats = result.stats
    if result.resumed_from:
        print(
            f"resumed from the journal at period {result.resumed_from} "
            f"({params.d - result.resumed_from} periods replayed or served)"
        )
    if args.faults is not None:
        report = result.fault_report
        recovered = (
            report["crashes"] + report["hangs"] + report["timeouts"]
            + report["corrupt_payloads"]
        )
        print(
            f"supervision: {recovered} fault(s) seen, "
            f"{report['retries']} retried "
            f"({report['backoff_seconds']:.1f}s simulated backoff, "
            f"{report['pool_respawns']} pool respawn(s))"
        )
    if result.degraded:
        blocks = ", ".join(str(b) for b in result.lost_blocks)
        print(
            f"DEGRADED: block(s) {blocks} permanently lost "
            f"({stats.lost_users:,} users); loss folded into the "
            "fault-adjusted radius"
        )
    bound, _beta = protocol_radius("future_rand", params, result.c_gap)
    radius = fault_adjusted_radius(
        bound,
        params,
        drop_rate=stats.effective_drop_rate,
        duplicate_rate=stats.effective_duplicate_rate,
    )
    max_abs_error = result.to_result().max_abs_error
    print(
        f"delivered {stats.delivered_messages:,}/{stats.total_messages:,} "
        f"messages ({stats.delivered_reports:,} reports) in "
        f"{result.elapsed_seconds:.2f}s "
        f"({result.reports_per_second:,.0f} reports/s)"
    )
    print(
        f"faults: dropped={stats.dropped_messages:,} "
        f"late={stats.late_messages:,} "
        f"duplicates={stats.duplicate_messages:,} "
        f"(discarded {stats.duplicates_discarded:,}) "
        f"skew-buffered={stats.skew_buffered:,} "
        f"peak-queue={stats.peak_queue_depth}"
    )
    verdict = "within" if max_abs_error <= radius else "OUTSIDE"
    print(
        f"max |error| = {max_abs_error:.1f} — {verdict} the fault-adjusted "
        f"conformance radius {radius:.1f}"
    )
    return 0 if max_abs_error <= radius else 1


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.core.params import ProtocolParams
    from repro.fuzz.corpus import FuzzCorpus, entry_from_record, replay_entry
    from repro.fuzz.engine import run_fuzz
    from repro.sim.parallel import default_workers
    from repro.sim.store import ArtifactCorruptedError

    corpus = FuzzCorpus(args.corpus or _PINNED_CORPUS)

    if args.replay:
        try:
            entries = corpus.load_all()
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except ArtifactCorruptedError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not entries:
            print(
                f"error: fuzz corpus {corpus.root} contains no entries; "
                "run 'repro fuzz' (without --replay) to populate it",
                file=sys.stderr,
            )
            return 1
        failures = 0
        for entry in entries:
            supports_kernel = PROTOCOLS[entry.protocol].supports_kernel
            if args.kernel is None or not supports_kernel:
                # Recorded kernel: the replay must be bit-identical.  Entries
                # for kernel-less protocols also land here under --kernel
                # (there is no backend to swap).
                metrics = replay_entry(entry)
                drifted = (
                    tuple(tuple(trial) for trial in metrics) != entry.metrics
                )
            else:
                # Kernel override: a different draw, but the bound must hold.
                metrics = replay_entry(entry, kernel=args.kernel)
                drifted = False
            observed = max(trial[0] for trial in metrics)
            violated = observed > entry.radius
            status = "ok"
            if drifted:
                status = "DRIFT (metrics differ from the pinned replay)"
                failures += 1
            if violated:
                status = (
                    f"BOUND VIOLATION (observed {observed:,.1f} > radius "
                    f"{entry.radius:,.1f})"
                )
                failures += 1
            print(
                f"{entry.scenario_name}  {entry.protocol:12s} "
                f"fitness={entry.fitness:.3f}  {status}"
            )
        if failures:
            print(
                f"error: {failures} corpus entr{'y' if failures == 1 else 'ies'} "
                "failed replay",
                file=sys.stderr,
            )
            return 1
        print(f"(replayed {len(entries)} corpus entries from {corpus.root})")
        return 0

    workers = args.workers if args.workers > 0 else default_workers()
    params = ProtocolParams(n=args.n, d=args.d, k=args.k, epsilon=args.epsilon)

    def progress(generation: int, evaluations: int, best: float) -> None:
        print(
            f"  generation {generation}: {evaluations}/{args.budget} "
            f"evaluations, best fitness {best:.3f}"
        )

    print(
        f"fuzzing {args.protocol} (n={args.n:,} d={args.d} k={args.k} "
        f"epsilon={args.epsilon}, budget={args.budget}, seed={args.seed})"
    )
    outcome = run_fuzz(
        args.protocol,
        params,
        budget=args.budget,
        seed=args.seed,
        workers=workers,
        trials=args.trials,
        population_size=args.population,
        kernel=args.kernel,
        on_generation=progress,
    )
    survivors = outcome.ranked[: args.survivors]
    for record in survivors:
        entry = entry_from_record(outcome, record)
        path = corpus.write(entry)
        print(
            f"  pinned {entry.scenario_name}: {record.genome.generator} "
            f"population, fitness {record.fitness:.3f} "
            f"(observed {record.observed_max_abs:,.1f} / radius "
            f"{record.radius:,.1f}) -> {path}"
        )
    violations = [
        record
        for record in outcome.records
        if record.observed_max_abs > record.radius
    ]
    if violations:
        worst = max(violations, key=lambda record: record.fitness)
        print(
            f"error: {len(violations)} genome(s) exceeded the analytical "
            f"radius (worst: {worst.genome.generator} population, observed "
            f"{worst.observed_max_abs:,.1f} > radius {worst.radius:,.1f}) — "
            "a conformance bug, not a fuzzer success; survivors were still "
            "pinned for reproduction",
            file=sys.stderr,
        )
        return 1
    print(
        f"({outcome.evaluations} evaluations, {len(survivors)} survivors "
        f"pinned under {corpus.root})"
    )
    return 0


def _command_results_show(path_text: str) -> int:
    from repro.sim.results import ResultTable
    from repro.sim.store import ResultStore

    path = Path(path_text)
    if not path.exists():
        print(
            f"error: no such file or result store: {path}", file=sys.stderr
        )
        return 1
    if path.is_dir():
        store = ResultStore(path)
        protocols: dict[str, int] = {}
        trials = 0
        for body in store.iter_shards():
            key = body["key"]
            protocols[key["protocol"]] = protocols.get(key["protocol"], 0) + 1
            trials += key["trial_stop"] - key["trial_start"]
        print(f"result store: {path}")
        print(f"shard artifacts: {store.shard_count()} ({trials} trials)")
        for protocol in sorted(protocols):
            print(f"  {protocol}: {protocols[protocol]} shards")
        tables = store.list_tables()
        print(f"tables: {len(tables)}")
        for name in tables:
            print(f"  {name}")
        return 0
    table = ResultTable.from_json(path.read_text())
    print(table.to_markdown())
    return 0


def _command_results_merge(output: str, inputs: Sequence[str]) -> int:
    from repro.sim.results import ResultTable
    from repro.sim.store import ResultStore, merge_tables

    # Accept table JSON files and result-store directories (expanded to
    # their saved tables); fail with a readable message, not a traceback.
    paths: list[Path] = []
    for text in inputs:
        path = Path(text)
        if not path.exists():
            print(
                f"error: no such table file or result store: {path}",
                file=sys.stderr,
            )
            return 1
        if path.is_dir():
            store = ResultStore(path)
            names = store.list_tables()
            if not names:
                print(
                    f"error: result store {path} contains no saved tables "
                    "(run a sweep with --out first)",
                    file=sys.stderr,
                )
                return 1
            paths.extend(store.tables_dir / f"{name}.json" for name in names)
        else:
            paths.append(path)

    tables = []
    for path in paths:
        try:
            tables.append(ResultTable.from_json(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot read table {path}: {error}", file=sys.stderr)
            return 1
    merged = merge_tables(tables)
    out_path = Path(output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(merged.to_json())
    print(merged.to_markdown())
    print()
    print(f"(merged {len(tables)} tables, {len(merged.rows)} rows -> {out_path})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(
            args.experiment,
            args.scale,
            args.seed,
            args.json_dir,
            args.workers,
            args.store_dir,
        )
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "bench":
        return _command_bench(
            args.scale, args.out, args.seed, args.assert_speedup, args.mode
        )
    if args.command == "results":
        if args.results_command == "show":
            return _command_results_show(args.path)
        return _command_results_merge(args.output, args.inputs)
    if args.command == "cgap":
        return _command_cgap(args.k, args.epsilon)
    if args.command == "verify":
        return _command_verify(args.k, args.epsilon)
    if args.command == "communication":
        return _command_communication(args.d)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "protocols":
        return _command_protocols(
            args.online, args.offline, args.privacy_model, args.json
        )
    if args.command == "serve-sim":
        if args.resume and args.journal is None:
            parser.error("serve-sim: --resume needs a --journal to resume from")
        return _command_serve_sim(args)
    if args.command == "fuzz":
        if args.corpus is None and not args.replay:
            parser.error(
                "fuzz: a search writes its survivors into --corpus DIR; name "
                f"one ({_PINNED_CORPUS} is the pinned corpus, for --replay)"
            )
        return _command_fuzz(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
