"""Command-line interface: ``ppm`` (or ``python -m repro``).

Subcommands
-----------
``generate``
    Produce a synthetic series (Section 5.1 generator) and save it.
``mine``
    Mine a series file for one period or a period range and print the
    frequent patterns.
``suggest``
    Score a period range and print the most promising periods.
``rules``
    Derive periodic association rules from one period's frequent patterns.
``cycles``
    Find perfect (confidence-1) cycles — the cyclic-association baseline.
``heatmap``
    Render the offsets-by-features confidence heatmap of one period.
``windows``
    Mine a sliding window and report pattern evolution between windows.
``stream``
    Mine windows continuously over a slot or event feed (file or stdin),
    emitting one JSON line per closed window.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.analysis.periodogram import suggest_periods
from repro.core.errors import MiningError, ReproError
from repro.core.miner import PartialPeriodicMiner
from repro.core.result import MiningResult
from repro.synth.generator import SyntheticSpec
from repro.timeseries.io import load_series, save_series

if TYPE_CHECKING:
    from repro.streaming.buffer import ArrivalBuffer


def add_mining_args(parser: argparse.ArgumentParser) -> None:
    """Install the mining-parameter options shared by ``mine`` and ``serve``.

    Both subcommands drive the same miner, so their knobs must stay in
    lockstep: confidence threshold, cache directory, and lenient loading.
    """
    parser.add_argument("--min-conf", type=float, default=0.5)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persist scan results (keyed by series fingerprint and period) "
            "so re-mining the same series at a different --min-conf answers "
            "from the cache without scanning; see docs/kernels.md"
        ),
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help=(
            "quarantine malformed series lines instead of failing the load "
            "(quarantined lines are reported on stderr)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppm",
        description=(
            "Partial periodic pattern mining "
            "(Han, Dong & Yin, ICDE 1999 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic feature series"
    )
    generate.add_argument("output", help="path of the series file to write")
    generate.add_argument("--length", type=int, default=100_000)
    generate.add_argument("--period", type=int, default=50)
    generate.add_argument("--max-pat-length", type=int, default=6)
    generate.add_argument("--f1-size", type=int, default=12)
    generate.add_argument("--seed", type=int, default=0)

    mine = commands.add_parser("mine", help="mine a series file")
    mine.add_argument("input", help="series file (see repro.timeseries.io)")
    mine.add_argument("--period", type=int, help="single period to mine")
    mine.add_argument(
        "--period-range",
        type=int,
        nargs=2,
        metavar=("LOW", "HIGH"),
        help="inclusive period range (shared two-scan mining)",
    )
    add_mining_args(mine)
    mine.add_argument(
        "--algorithm", choices=("hitset", "apriori"), default="hitset"
    )
    mine.add_argument(
        "--maximal", action="store_true", help="print only maximal patterns"
    )
    mine.add_argument("--limit", type=int, default=25)
    mine.add_argument(
        "--json",
        metavar="PATH",
        help="also write the result as JSON (single-period mining only)",
    )
    mine.add_argument(
        "--store-dir",
        metavar="DIR",
        help=(
            "intern the series into a segment store mined on the columnar "
            "kernels, spilled to this directory once it crosses "
            "--spill-mb and mined as an mmap'd on-disk column in bounded "
            "memory (series larger than RAM mine at disk bandwidth; "
            "vocabularies of at most 64 letters; see docs/kernels.md)"
        ),
    )
    mine.add_argument(
        "--spill-mb",
        type=int,
        default=64,
        metavar="MIB",
        help=(
            "in-memory threshold before the segment store spills to "
            "--store-dir (default 64 MiB; 0 spills unconditionally)"
        ),
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage wall times and cache counters after mining",
    )
    mine.add_argument(
        "--profile-json",
        metavar="PATH",
        help="also write the profile as JSON (implies --profile collection)",
    )
    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant mining service",
        description=(
            "Long-running HTTP/JSON query server over a pool of loaded "
            "series: admission control, query coalescing, per-tenant "
            "quotas, and a shared count cache; see docs/serve.md"
        ),
    )
    add_mining_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listening port (0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--series",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="preload a series file under a name (repeatable)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="worker threads answering requests",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound: further requests are refused with 429",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline (0 disables; exceeded requests get 504)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        metavar="RPS",
        help="per-tenant sustained requests/second (default: unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=8,
        help="per-tenant burst allowance on top of --rate",
    )
    serve.add_argument(
        "--cache-max-entries",
        type=int,
        default=256,
        help="LRU bound on the shared count cache (0 = unbounded)",
    )
    serve.add_argument(
        "--tenant-cache-share",
        type=int,
        metavar="N",
        help=(
            "count-cache entries one tenant may own before its own oldest "
            "is evicted (default: no per-tenant share)"
        ),
    )
    serve.add_argument(
        "--result-cache-entries",
        type=int,
        default=1024,
        help="LRU bound on the serialized-result cache (0 disables it)",
    )
    serve.add_argument(
        "--max-streams",
        type=int,
        default=8,
        help="concurrent streaming sessions the server will hold",
    )
    serve.add_argument(
        "--stream-state-dir",
        help=(
            "persist open streaming sessions here on graceful shutdown "
            "and rehydrate them by name at startup (atomic, checksummed "
            "snapshots via repro.durability)"
        ),
    )

    suggest = commands.add_parser(
        "suggest", help="rank promising periods in a range"
    )
    suggest.add_argument("input")
    suggest.add_argument(
        "--period-range",
        type=int,
        nargs=2,
        metavar=("LOW", "HIGH"),
        required=True,
    )
    suggest.add_argument("--min-conf", type=float, default=0.5)
    suggest.add_argument("--limit", type=int, default=5)

    rules = commands.add_parser(
        "rules", help="derive periodic association rules for one period"
    )
    rules.add_argument("input")
    rules.add_argument("--period", type=int, required=True)
    rules.add_argument("--min-conf", type=float, default=0.5)
    rules.add_argument("--min-rule-conf", type=float, default=0.7)
    rules.add_argument("--limit", type=int, default=15)
    rules.add_argument(
        "--about", help="only rules whose consequent mentions this feature"
    )

    cycles = commands.add_parser(
        "cycles", help="find perfect (confidence-1) cycles in a period range"
    )
    cycles.add_argument("input")
    cycles.add_argument(
        "--period-range",
        type=int,
        nargs=2,
        metavar=("LOW", "HIGH"),
        required=True,
    )

    heatmap = commands.add_parser(
        "heatmap", help="render the 1-pattern confidence heatmap of a period"
    )
    heatmap.add_argument("input")
    heatmap.add_argument("--period", type=int, required=True)
    heatmap.add_argument("--max-features", type=int, default=15)

    windows = commands.add_parser(
        "windows", help="mine a sliding window and report pattern evolution"
    )
    windows.add_argument("input")
    windows.add_argument("--period", type=int, required=True)
    windows.add_argument("--min-conf", type=float, default=0.5)
    windows.add_argument("--window-periods", type=int, required=True)
    windows.add_argument("--step-periods", type=int)
    windows.add_argument("--tolerance", type=float, default=0.05)

    stream = commands.add_parser(
        "stream",
        help="mine windows continuously over a slot or event feed",
        description=(
            "Windowed streaming mining (repro.streaming): reads a slot "
            "feed (series-file lines) or, with --events, a timed event "
            "feed, and emits one JSON object per closed window — exact "
            "patterns plus the change diff against the previous window"
        ),
    )
    stream.add_argument(
        "input", help="feed file, or '-' to read from stdin"
    )
    stream.add_argument("--period", type=int, required=True)
    stream.add_argument(
        "--window",
        type=int,
        required=True,
        help="window size in slots (>= period)",
    )
    stream.add_argument(
        "--slide",
        type=int,
        help=(
            "slots between window starts (default: --window, i.e. "
            "tumbling; must be a multiple of --period)"
        ),
    )
    stream.add_argument("--min-conf", type=float, default=0.5)
    stream.add_argument("--max-letters", type=int)
    stream.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="minimum confidence move reported as strengthened/weakened",
    )
    stream.add_argument(
        "--events",
        action="store_true",
        help=(
            "input lines are 'TIME FEATURE [FEATURE...]' events, possibly "
            "out of order; they are reordered into slots under the "
            "--lateness watermark"
        ),
    )
    stream.add_argument(
        "--slot-width",
        type=float,
        default=1.0,
        help="event-time duration of one slot (with --events)",
    )
    stream.add_argument(
        "--origin",
        type=float,
        default=0.0,
        help="event time of slot 0 (with --events)",
    )
    stream.add_argument(
        "--lateness",
        type=float,
        default=0.0,
        help=(
            "bounded-lateness allowance: events may trail the newest "
            "event by this much and still count; older ones are "
            "quarantined and reported (with --events)"
        ),
    )
    stream.add_argument(
        "--checkpoint-dir",
        help=(
            "durable checkpoint directory (repro.durability): every "
            "input record is write-ahead logged and state snapshots "
            "rotate, so a killed run resumes exactly with --resume"
        ),
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint-dir: restore the newest valid "
            "snapshot, replay the WAL tail, and skip the feed records "
            "already logged (requires --checkpoint-dir)"
        ),
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="input records between snapshots (with --checkpoint-dir)",
    )
    stream.add_argument(
        "--out",
        help=(
            "write window JSONL here instead of stdout; with "
            "--checkpoint-dir the file is an exactly-once sink (torn "
            "tail truncated, replayed windows deduplicated on resume)"
        ),
    )

    lint = commands.add_parser(
        "lint",
        help="run the repro.devtools static analysis suite",
        description=(
            "Domain-aware static analysis (fork-safety, pattern "
            "immutability, determinism, API hygiene); see docs/devtools.md"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument("--select", metavar="IDS")
    lint.add_argument("--ignore", metavar="IDS")
    lint.add_argument("--strict", action="store_true")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--project",
        action="store_true",
        help="whole-program analysis (call graph + transitive effects)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="fail only on findings not recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as the accepted baseline and exit",
    )
    lint.add_argument("--list-rules", action="store_true")

    fuzz = commands.add_parser(
        "fuzz",
        help="differentially fuzz the counting paths against an oracle",
        description=(
            "Coverage-guided differential fuzzing: randomized series are "
            "mined in memory and through a spilled segment store and "
            "checked against a brute-force oracle and Apriori, and the "
            "store primitives are cross-checked against naive "
            "recomputation; any divergence "
            "is a bug.  --self-check injects known kernel bugs and fails "
            "unless the fuzzer catches every one."
        ),
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=200,
        help="number of fuzz cases to execute (default 200)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default 0)"
    )
    fuzz.add_argument(
        "--self-check",
        action="store_true",
        help=(
            "mutation-test the fuzzer itself: inject known columnar bugs "
            "and require a divergence for each"
        ),
    )
    fuzz.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    return parser


def _run_generate(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        length=args.length,
        period=args.period,
        max_pat_length=args.max_pat_length,
        f1_size=args.f1_size,
        seed=args.seed,
    )
    generated = spec.generate()
    save_series(generated.series, args.output)
    print(f"wrote {args.length} slots to {args.output}")
    print(f"planted pattern: {generated.planted_pattern}")
    print(f"recommended --min-conf: {generated.recommended_min_conf:.2f}")
    return 0


def _print_result(result: MiningResult, limit: int, maximal: bool) -> None:
    counts = result.maximal_patterns() if maximal else dict(result.items())
    rows = sorted(
        counts.items(), key=lambda item: (-item[1], str(item[0]))
    )[:limit]
    kind = "maximal frequent" if maximal else "frequent"
    print(
        f"period {result.period}: {len(counts)} {kind} patterns "
        f"(m={result.num_periods}, scans={result.stats.scans})"
    )
    for pattern, count in rows:
        confidence = count / result.num_periods
        print(f"  {str(pattern):<40} count={count:<8} conf={confidence:.3f}")


def _load_mine_series(args: argparse.Namespace):
    """Load the input series, quarantining bad lines under ``--lenient``."""
    if not args.lenient:
        return load_series(args.input)
    from repro.timeseries.io import LoadReport

    report = LoadReport()
    series = load_series(args.input, strict=False, report=report)
    for item in report.quarantined[:10]:
        print(f"warning: quarantined {item.describe()}", file=sys.stderr)
    if len(report.quarantined) > 10:
        print(
            f"warning: ... and {len(report.quarantined) - 10} more "
            "quarantined lines",
            file=sys.stderr,
        )
    return series


def _run_mine(args: argparse.Namespace) -> int:
    if (args.period is None) == (args.period_range is None):
        print("specify exactly one of --period or --period-range", file=sys.stderr)
        return 2
    if args.store_dir is not None:
        if args.period is None:
            print("--store-dir requires --period", file=sys.stderr)
            return 2
        if args.maximal:
            print("--store-dir does not combine with --maximal", file=sys.stderr)
            return 2
        if args.spill_mb < 0:
            print("--spill-mb must be >= 0", file=sys.stderr)
            return 2
    if args.algorithm == "apriori":
        for flag, given in (
            ("--store-dir", args.store_dir is not None),
            ("--period-range", args.period_range is not None),
            ("--maximal", args.maximal),
        ):
            if given:
                print(
                    f"{flag} runs hitset mining only; it does not combine "
                    "with --algorithm apriori",
                    file=sys.stderr,
                )
                return 2
    wants_profile = args.profile or args.profile_json is not None
    if (args.cache_dir or wants_profile) and args.period is None:
        print(
            "--cache-dir and --profile require --period", file=sys.stderr
        )
        return 2
    if (args.cache_dir or wants_profile) and (
        args.maximal or args.algorithm != "hitset"
    ):
        print(
            "--cache-dir and --profile apply to hitset mining only "
            "(not --maximal or --algorithm apriori)",
            file=sys.stderr,
        )
        return 2
    series = _load_mine_series(args)
    miner = PartialPeriodicMiner(
        series, min_conf=args.min_conf, algorithm=args.algorithm
    )
    started = time.perf_counter()
    cache = None
    if args.cache_dir:
        from repro.kernels.cache import CountCache

        cache = CountCache(args.cache_dir)
    profile = None
    if wants_profile:
        from repro.kernels.profile import MiningProfile

        profile = MiningProfile()
    store = None
    if args.store_dir is not None:
        from repro.kernels.store import StoreOptions

        store = StoreOptions(
            directory=args.store_dir,
            spill_bytes=args.spill_mb * 1024 * 1024,
        )
    if args.period is not None:
        if args.maximal:
            result = miner.mine_maximal(args.period)
        else:
            try:
                result = miner.mine(
                    args.period, cache=cache, profile=profile, store=store
                )
            except MiningError as error:
                from repro.kernels.store import WideVocabularyError

                # A vocabulary too wide for --store-dir is a usage error.
                if not isinstance(error.__cause__, WideVocabularyError):
                    raise
                print(f"error: {error}", file=sys.stderr)
                return 2
        _print_result(result, args.limit, args.maximal)
        if cache is not None:
            print(f"  [cache {cache.stats.summary()}]")
        if profile is not None and args.profile:
            print(profile.table())
        if profile is not None and args.profile_json:
            import json

            with open(args.profile_json, "w", encoding="utf-8") as handle:
                json.dump(profile.to_json(), handle, indent=2)
                handle.write("\n")
            print(f"profile written to {args.profile_json}")
        if args.json:
            from repro.core.serialize import save_result

            save_result(result, args.json)
            print(f"result written to {args.json}")
    else:
        if args.json:
            print("--json requires --period", file=sys.stderr)
            return 2
        low, high = args.period_range
        outcome = miner.mine_range(low, high)
        print(outcome.summary())
        for period, pattern, confidence in outcome.best_patterns(args.limit):
            print(
                f"  period={period:<4} {str(pattern):<40} conf={confidence:.3f}"
            )
    elapsed = time.perf_counter() - started
    print(f"({elapsed:.2f}s)")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.app import MiningApp, ServeConfig
    from repro.serve.server import MiningServer

    config = ServeConfig(
        min_conf=args.min_conf,
        concurrency=args.concurrency,
        max_pending=args.max_pending,
        request_timeout_s=(
            None if args.request_timeout == 0 else args.request_timeout
        ),
        rate_limit=args.rate,
        rate_burst=args.burst,
        cache_dir=args.cache_dir,
        cache_max_entries=(
            None if args.cache_max_entries == 0 else args.cache_max_entries
        ),
        tenant_cache_share=args.tenant_cache_share,
        result_cache_entries=args.result_cache_entries,
        lenient=args.lenient,
        max_streams=args.max_streams,
        stream_state_dir=args.stream_state_dir,
    )
    app = MiningApp(config)
    for item in args.series:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            print(
                f"--series expects NAME=PATH, got {item!r}", file=sys.stderr
            )
            return 2
        loaded = app.registry.load(name, path, lenient=args.lenient)
        print(
            f"loaded {loaded.name}: {loaded.slots} slots "
            f"(fingerprint {loaded.fingerprint})"
        )

    async def _serve() -> None:
        server = MiningServer(app, host=args.host, port=args.port)
        await server.start()
        print(f"ppm serve listening on http://{server.address}")
        print(
            "POST /mine /stream /stream/<name> | "
            "GET /series /stats /healthz | POST /shutdown"
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _run_suggest(args: argparse.Namespace) -> int:
    series = load_series(args.input)
    low, high = args.period_range
    scores = suggest_periods(
        series, low, high, min_conf=args.min_conf, limit=args.limit
    )
    print(f"top periods in [{low}, {high}]:")
    for item in scores:
        print(
            f"  period={item.period:<5} score={item.score:8.3f} "
            f"frequent_letters={item.frequent_letters:<4} "
            f"best_conf={item.best_confidence:.3f}"
        )
    return 0


def _run_rules(args: argparse.Namespace) -> int:
    from repro.rules.periodic_rules import derive_rules, rules_about

    series = load_series(args.input)
    result = PartialPeriodicMiner(series, min_conf=args.min_conf).mine(
        args.period
    )
    rules = derive_rules(result, min_rule_conf=args.min_rule_conf)
    if args.about:
        rules = rules_about(rules, args.about)
    print(
        f"{len(rules)} periodic rules at period {args.period} "
        f"(pattern conf >= {args.min_conf}, rule conf >= {args.min_rule_conf})"
    )
    for rule in rules[: args.limit]:
        print(f"  {rule}")
    return 0


def _run_cycles(args: argparse.Namespace) -> int:
    from repro.rules.cyclic import find_perfect_cycles, perfect_patterns

    series = load_series(args.input)
    low, high = args.period_range
    cycles, stats = find_perfect_cycles(series, max_period=high, min_period=low)
    print(
        f"{len(cycles)} perfect cycles in periods [{low}, {high}] "
        f"({stats.eliminated} candidates eliminated)"
    )
    for period, pattern in perfect_patterns(cycles).items():
        print(f"  period={period:<4} {pattern}")
    return 0


def _run_heatmap(args: argparse.Namespace) -> int:
    from repro.analysis.visualize import confidence_heatmap

    series = load_series(args.input)
    print(
        confidence_heatmap(
            series, args.period, max_features=args.max_features
        )
    )
    return 0


def _run_windows(args: argparse.Namespace) -> int:
    from repro.analysis.evolution import evolution_report, mine_windows

    series = load_series(args.input)
    windows = mine_windows(
        series,
        args.period,
        args.min_conf,
        window_periods=args.window_periods,
        step_periods=args.step_periods,
    )
    print(
        f"{len(windows)} windows of {args.window_periods} periods "
        f"(period {args.period}, min_conf {args.min_conf})"
    )
    for window in windows:
        print(
            f"  window {window.index}: slots "
            f"[{window.start_slot}, {window.end_slot}) "
            f"frequent={len(window.result)}"
        )
    for index, diff in evolution_report(windows, tolerance=args.tolerance):
        if diff.is_stable:
            continue
        print(f"  window {index - 1} -> {index}:")
        for pattern in diff.emerged[:5]:
            print(f"    emerged   {pattern}")
        for pattern in diff.vanished[:5]:
            print(f"    vanished  {pattern}")
        for change in (diff.strengthened + diff.weakened)[:5]:
            print(
                f"    moved     {change.pattern} "
                f"{change.before:.2f} -> {change.after:.2f}"
            )
    return 0


def _feed_records(args: argparse.Namespace) -> Iterator[list]:
    """The ``ppm stream`` feed, one record per input line.

    Slot feeds yield each line's features (a blank line is an empty
    slot); ``--events`` feeds yield ``[time, [feature, ...]]`` and skip
    blank lines.  ``#`` lines are comments in both.
    """
    from repro.core.errors import StreamError

    if args.input == "-":
        handle = sys.stdin
    else:
        try:
            handle = open(args.input, encoding="utf-8")
        except OSError as error:
            raise StreamError(f"cannot read feed: {error}") from error
    try:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line.startswith("#") or (args.events and not line):
                continue
            fields = line.split()
            if not args.events:
                yield fields
                continue
            try:
                when = float(fields[0])
            except ValueError:
                raise StreamError(
                    f"{args.input}:{number}: event lines start with "
                    f"a timestamp, got {fields[0]!r}"
                ) from None
            yield [when, fields[1:]]
    finally:
        if handle is not sys.stdin:
            handle.close()


def _warn_late(buffer: ArrivalBuffer) -> None:
    """Report the arrival buffer's quarantined late events on stderr."""
    report = buffer.report
    if report.clean:
        return
    print(
        f"warning: quarantined {report.total} late events", file=sys.stderr
    )
    for sample in report.samples[:5]:
        print(f"warning:   {sample.describe()}", file=sys.stderr)


def _run_stream(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import StreamError
    from repro.streaming import ArrivalBuffer, StreamingMiner, window_to_dict

    if args.resume and not args.checkpoint_dir:
        raise StreamError("--resume requires --checkpoint-dir")
    if args.checkpoint_dir:
        return _run_stream_durable(args)

    miner = StreamingMiner(
        period=args.period,
        window=args.window,
        slide=args.slide,
        min_conf=args.min_conf,
        max_letters=args.max_letters,
        change_tolerance=args.tolerance,
    )
    buffer = (
        ArrivalBuffer(
            slot_width=args.slot_width,
            start=args.origin,
            lateness=args.lateness,
        )
        if args.events
        else None
    )

    out_handle = None
    if args.out:
        out_handle = open(args.out, "w", encoding="utf-8")

    def emit(windows) -> None:
        for window in windows:
            line = json.dumps(window_to_dict(window))
            if out_handle is None:
                print(line, flush=True)
            else:
                out_handle.write(line + "\n")
                out_handle.flush()

    try:
        for record in _feed_records(args):
            if buffer is None:
                window = miner.append(frozenset(record))
                if window is not None:
                    emit([window])
                continue
            when, features = record
            for feature in features:
                buffer.add(when, feature)
            emit(miner.extend(buffer.drain()))
        if buffer is not None:
            emit(miner.extend(buffer.flush()))
            _warn_late(buffer)
    finally:
        if out_handle is not None:
            out_handle.close()
    print(
        f"stream done: {miner.slots_seen} slots in, "
        f"{miner.windows_emitted} windows out",
        file=sys.stderr,
    )
    return 0


def _run_stream_durable(args: argparse.Namespace) -> int:
    """The ``--checkpoint-dir`` path: WAL-logged, snapshotted, resumable."""
    import json
    from pathlib import Path

    from repro.core.errors import DurabilityError
    from repro.durability import DurableStream
    from repro.durability.files import file_chaos_from_env
    from repro.streaming import window_to_dict

    directory = Path(args.checkpoint_dir)
    if (
        not args.resume
        and directory.is_dir()
        and any(directory.iterdir())
    ):
        raise DurabilityError(
            f"{directory} already holds checkpoint state; pass --resume "
            "to continue that run, or point at a fresh directory"
        )
    stream = DurableStream(
        directory,
        period=args.period,
        window=args.window,
        slide=args.slide,
        min_conf=args.min_conf,
        max_letters=args.max_letters,
        tolerance=args.tolerance,
        events=args.events,
        slot_width=args.slot_width,
        origin=args.origin,
        lateness=args.lateness,
        checkpoint_every=args.checkpoint_every,
        out=args.out,
        chaos=file_chaos_from_env(),
    )
    if stream.recovery is not None:
        print(f"resume: {stream.recovery.describe()}", file=sys.stderr)
    for window in stream.replayed_windows:
        # No durable sink to deduplicate against: replayed windows are
        # re-printed (at-least-once on stdout; use --out for exactly-once).
        print(json.dumps(window_to_dict(window)), flush=True)

    skip = stream.records_logged
    for seen, record in enumerate(_feed_records(args), start=1):
        if seen <= skip:
            continue  # already write-ahead logged by the killed run
        if not args.events:
            record = sorted(set(record))
        for window in stream.feed(record):
            if stream.sink is None:
                print(json.dumps(window_to_dict(window)), flush=True)
    for window in stream.finish():
        if stream.sink is None:
            print(json.dumps(window_to_dict(window)), flush=True)
    if stream.buffer is not None:
        _warn_late(stream.buffer)
    miner = stream.miner
    print(
        f"stream done: {miner.slots_seen} slots in, "
        f"{miner.windows_emitted} windows out "
        f"({stream.records_logged} records logged)",
        file=sys.stderr,
    )
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.devtools.cli import _print_catalog
    from repro.devtools.cli import run as lint_run

    if args.list_rules:
        _print_catalog()
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    return lint_run(
        paths,
        select=args.select,
        ignore=args.ignore,
        strict=args.strict,
        output_format=args.format,
        project=args.project,
        baseline=args.baseline,
        write_baseline_to=args.write_baseline,
    )


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.devtools.fuzz import fuzz, mutation_check

    if args.budget <= 0:
        print("--budget must be positive", file=sys.stderr)
        return 2
    started = time.perf_counter()
    report = fuzz(args.budget, seed=args.seed)
    print(report.summary())
    for divergence in report.divergences[:10]:
        described = divergence.describe()
        print(f"  {described['stage']}: {described['detail']}")
        print(f"    case: {described['case']}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    exit_code = 0 if report.ok else 1
    if args.self_check:
        caught = mutation_check(seed=args.seed)
        missed = sorted(name for name, hit in caught.items() if not hit)
        if missed:
            print(
                "self-check FAILED; injected bugs not caught: "
                + ", ".join(missed),
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(
                f"self-check ok: {len(caught)} injected kernel bugs, "
                "all caught"
            )
    print(f"({time.perf_counter() - started:.2f}s)")
    return exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _run_generate,
        "mine": _run_mine,
        "serve": _run_serve,
        "suggest": _run_suggest,
        "rules": _run_rules,
        "cycles": _run_cycles,
        "heatmap": _run_heatmap,
        "windows": _run_windows,
        "stream": _run_stream,
        "lint": _run_lint,
        "fuzz": _run_fuzz,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
