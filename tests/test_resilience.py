"""Resilience without a sharded engine: what replaced each guarantee.

Mining runs in one process, so the engine's retry policy, backoff,
backend ladder and checkpoint journal are gone.  What is left of
resilience lives beside its callers, and this module keeps the test names
of the engine-era suite, each now pinning the successor behaviour:

* ``TestBackoff`` / ``TestRetryPolicy`` — the serve tier refuses instead
  of waiting: token buckets, failure classification, config validation;
* ``TestDeadline`` — :class:`repro.serve.deadline.Deadline`, the
  per-request wall-clock budget;
* ``TestPayloadCodec`` / ``TestCheckpointJournal`` — checksummed
  snapshots and the durability WAL, the one journal;
* ``TestResilienceContext`` — serve configuration wiring;
* ``TestRunShards`` — the serve pipeline's failure handling and the
  durability recovery ladder;
* ``TestChaosHarness`` — deterministic file-fault injection
  (:class:`repro.durability.FileChaos`);
* ``TestMinerResume`` — killed-and-resumed durable streams.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    DurabilityError,
    ServeError,
    SnapshotCorruption,
)
from repro.core.hitset import mine_single_period_hitset
from repro.durability import (
    DurableStream,
    FileChaos,
    FileChaosConfig,
    SnapshotWriter,
    StreamCheckpointer,
    file_chaos_from_env,
    read_snapshot,
    snapshot_bytes,
)
from repro.serve import MiningApp, Request, ServeConfig, TenantQuotas, TokenBucket
from repro.serve.deadline import Deadline
from repro.streaming import StreamingMiner, window_to_dict
from repro.timeseries.feature_series import FeatureSeries, series_fingerprint

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


class FakeClock:
    """An injectable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def random_series(seed: int, length: int = 60) -> FeatureSeries:
    rng = random.Random(seed)
    return FeatureSeries(
        [{f for f in "abcd" if rng.random() < 0.35} for _ in range(length)]
    )


def mine_request(series: str, period: object, min_conf: object = 0.4) -> Request:
    body = {"series": series, "period": period, "min_conf": min_conf}
    return Request(method="POST", path="/mine", body=json.dumps(body).encode())


def serve_app(**config) -> MiningApp:
    app = MiningApp(ServeConfig(**config))
    app.registry.add("s", random_series(7, length=80))
    return app


def call(app: MiningApp, request: Request) -> tuple[int, dict]:
    return asyncio.run(app.handle(request))


def records(seed: int, length: int = 60) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        sorted({"abc"[i % 3]} | ({rng.choice("abcde")} if rng.random() < 0.3 else set()))
        for i in range(length)
    ]


def reference_lines(feed: list[list[str]]) -> list[str]:
    miner = StreamingMiner(period=3, window=9, slide=3, min_conf=0.6)
    lines = []
    for record in feed:
        emitted = miner.append(frozenset(record))
        if emitted is not None:
            lines.append(json.dumps(window_to_dict(emitted)))
    return lines


def durable(directory, out, **overrides) -> DurableStream:
    params = dict(
        period=3, window=9, slide=3, min_conf=0.6, checkpoint_every=4,
        out=out,
    )
    params.update(overrides)
    return DurableStream(directory, **params)


def hard_kill(stream: DurableStream) -> None:
    """Abandon a stream the way SIGKILL does (no final snapshot)."""
    handle = stream._ckpt._handle
    if handle is not None:
        handle.close()
        stream._ckpt._handle = None
    if stream._sink is not None:
        stream._sink._handle.close()


# ---------------------------------------------------------------------------
# Refuse, don't wait: the serve tier's token buckets
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_exponential_growth_and_cap(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True] * 3 + [False]
        clock.now = 1.0  # two tokens accrue
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]
        clock.now = 100.0  # refill caps at the burst
        assert sum(bucket.try_acquire() for _ in range(10)) == 3

    def test_zero_base_disables_backoff(self):
        quotas = TenantQuotas(rate=None, clock=FakeClock())
        assert all(quotas.allow("t") for _ in range(1000))

    def test_jitter_is_deterministic_and_bounded(self):
        def admitted() -> list[bool]:
            clock = FakeClock()
            bucket = TokenBucket(rate=1.5, burst=2, clock=clock)
            out = []
            for step in range(40):
                clock.now = step * 0.3
                out.append(bucket.try_acquire())
            return out

        first, second = admitted(), admitted()
        assert first == second
        # Never more than the burst plus what the rate accrued.
        assert sum(first) <= 2 + 1.5 * 39 * 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0, "burst": 1},
            {"rate": -1.0, "burst": 1},
            {"rate": 1.0, "burst": 0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ServeError):
            TokenBucket(clock=FakeClock(), **kwargs)


# ---------------------------------------------------------------------------
# Failure classification in the serve pipeline
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_default_reproduces_retry_once(self):
        # A request refused as saturated succeeds when retried once the
        # pending work has drained.
        app = serve_app(max_pending=1)
        try:
            app._pending = 1
            status, payload = call(app, mine_request("s", 4))
            assert (status, payload["reason"]) == (429, "saturated")
            app._pending = 0
            status, _ = call(app, mine_request("s", 4))
            assert status == 200
        finally:
            app.close()

    def test_classification(self):
        app = serve_app(rate_limit=1.0, rate_burst=1)
        try:
            assert call(app, mine_request("s", 4))[0] == 200
            status, payload = call(app, mine_request("s", 4))
            assert (status, payload["reason"]) == (429, "rate-limit")
            assert call(app, mine_request("missing", 4))[0] == 404
            assert call(app, mine_request("s", "four"))[0] == 400
        finally:
            app.close()

    def test_retryable_override_beats_fatal(self):
        # Retryable refusals say why; a malformed request is a plain 400
        # that no retry can fix.
        app = serve_app(max_pending=1)
        try:
            app._pending = 1
            status, payload = call(app, mine_request("s", 4))
            assert status == 429 and "retry" in payload["error"]
            app._pending = 0
            status, payload = call(app, mine_request("s", 4, min_conf="x"))
            assert status == 400 and "reason" not in payload
        finally:
            app.close()

    def test_delay_uses_shard_and_seed(self):
        # Each tenant draws on its own bucket.
        quotas = TenantQuotas(rate=1.0, burst=1, clock=FakeClock())
        assert quotas.allow("a") and not quotas.allow("a")
        assert quotas.allow("b") and not quotas.allow("b")
        snapshot = quotas.snapshot()
        assert snapshot["a"] == snapshot["b"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"concurrency": 0},
            {"max_pending": 0},
            {"request_timeout_s": 0.0},
            {"result_cache_entries": -1},
        ],
    )
    def test_rejects_bad_policies(self, kwargs):
        with pytest.raises(ServeError):
            MiningApp(ServeConfig(**kwargs))


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_fresh_deadline_is_live(self):
        deadline = Deadline.start(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0
        assert deadline.elapsed() >= 0.0

    def test_tiny_deadline_expires(self):
        deadline = Deadline.start(1e-9)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ServeError):
            Deadline.start(0.0)
        with pytest.raises(ServeError):
            Deadline.start(-3.0)

    def test_check_passes_while_live(self):
        Deadline.start(60.0).check("anything")

    def test_check_raises_once_expired(self):
        deadline = Deadline.start(1e-9)
        with pytest.raises(DeadlineExceeded, match="scan phase"):
            deadline.check("scan phase")

    def test_bound_returns_result_within_budget(self):
        async def quick():
            return 42

        async def scenario():
            return await Deadline.start(60.0).bound(quick())

        assert asyncio.run(scenario()) == 42

    def test_bound_raises_on_slow_awaitable(self):
        async def slow():
            await asyncio.sleep(5.0)

        async def scenario():
            await Deadline.start(0.02).bound(slow(), "mine request")

        with pytest.raises(DeadlineExceeded, match="mine request"):
            asyncio.run(scenario())

    def test_bound_on_expired_deadline_never_schedules(self):
        ran = []

        async def work():
            ran.append(True)

        async def scenario():
            deadline = Deadline.start(1e-9)
            await deadline.bound(work())

        with pytest.raises(DeadlineExceeded):
            asyncio.run(scenario())
        # The coroutine was closed, not silently started.
        assert ran == []


# ---------------------------------------------------------------------------
# Snapshot payloads and the durability WAL
# ---------------------------------------------------------------------------


class TestPayloadCodec:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"counts": {"0:a": 3, "1:b": 2}},
            {"masks": [[5, 2], [9, 1]], "order": [[0, "a"], [2, "c"]]},
            {"text": "naïve ✓", "nested": {"deep": [None, True, 1.5]}},
            {"result": {"period": 3, "patterns": [{"pattern": "ab*", "count": 4}]}},
        ],
    )
    def test_round_trip(self, payload, tmp_path):
        path = SnapshotWriter(tmp_path).write("s.json", kind="t/1", payload=payload)
        assert read_snapshot(path, kind="t/1") == payload
        assert path.read_bytes() == snapshot_bytes("t/1", payload)

    def test_rejects_unknown_payloads(self, tmp_path):
        path = SnapshotWriter(tmp_path).write("s.json", kind="t/1", payload={})
        with pytest.raises(DurabilityError):
            read_snapshot(path, kind="other/1")
        with pytest.raises(TypeError):
            SnapshotWriter(tmp_path).write("x.json", kind="t/1", payload={1j})


def _wal(tmp_path) -> list:
    return sorted(tmp_path.glob("wal-*.jsonl"))


class TestCheckpointJournal:
    def test_record_and_reload(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            assert ckpt.recover() is None
            ckpt.append({"x": 1})
            ckpt.append({"x": 2})
        reopened = StreamCheckpointer(tmp_path, kind="t/1")
        state = reopened.recover()
        reopened.close()
        assert state is not None and state.tail == [{"x": 1}, {"x": 2}]

    def test_record_is_idempotent(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            for value in range(5):
                ckpt.append(value)
            ckpt.snapshot({"sum": 6})
            ckpt.append(5)
        tails = []
        for _ in range(2):
            with StreamCheckpointer(tmp_path, kind="t/1") as again:
                recovered = again.recover()
                tails.append((recovered.state, recovered.tail))
        assert tails[0] == tails[1] == ({"sum": 6}, [5])

    def test_rejects_mismatched_run_key(self, tmp_path):
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out)
        for record in records(1)[:20]:
            first.feed(record)
        first.close()
        with pytest.raises(DurabilityError, match="different"):
            durable(tmp_path / "ckpt", out, period=4, window=12, slide=4)

    def test_rejects_non_journal_file(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"format": "something-else"}\n{}\n{}\n')
        with pytest.raises(SnapshotCorruption):
            read_snapshot(path)

    def test_tolerates_truncated_final_line(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            ckpt.append("a")
            ckpt.append("b")
        (wal,) = _wal(tmp_path)
        wal.write_bytes(wal.read_bytes() + b'{"i": 2, "r"')
        with StreamCheckpointer(tmp_path, kind="t/1") as again:
            recovered = again.recover()
        assert recovered.tail == ["a", "b"]
        assert recovered.torn_wal_records == 1

    def test_tolerates_structurally_torn_final_record(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            ckpt.append("a")
        (wal,) = _wal(tmp_path)
        # Valid JSON, wrong shape: treated as the torn tail.
        wal.write_bytes(wal.read_bytes() + b'{"unexpected": true}\n')
        with StreamCheckpointer(tmp_path, kind="t/1") as again:
            recovered = again.recover()
            assert again.append("b") == 1
        assert recovered.tail == ["a"] and recovered.torn_wal_records == 1

    def test_torn_final_record_without_phase_is_skipped(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            ckpt.append("a")
        (wal,) = _wal(tmp_path)
        wal.write_bytes(wal.read_bytes() + b'{"r": "no index"}\n')
        with StreamCheckpointer(tmp_path, kind="t/1") as again:
            assert again.recover().tail == ["a"]
        assert wal.read_bytes().count(b"\n") == 1  # the torn line is cut

    def test_structural_damage_before_the_end_still_raises(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            for value in range(3):
                ckpt.append(value)
        (first,) = _wal(tmp_path)
        lines = first.read_bytes().split(b"\n")
        lines[1] = b'{"broken": 1}'
        first.write_bytes(b"\n".join(lines))
        # A later segment exists, so the damage is mid-log, not a torn tail.
        (tmp_path / "wal-000000000003.jsonl").write_text('{"i":3,"r":3}\n')
        with pytest.raises(DurabilityError, match="mid-log"):
            StreamCheckpointer(tmp_path, kind="t/1").recover()

    def test_rejects_corruption_before_the_end(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            for value in range(3):
                ckpt.append(value)
        (wal,) = _wal(tmp_path)
        lines = wal.read_bytes().split(b"\n")
        lines[1] = b'{"i": 7, "r": 1}'  # a gap in the record indices
        wal.write_bytes(b"\n".join(lines))
        with pytest.raises(DurabilityError, match="gap"):
            StreamCheckpointer(tmp_path, kind="t/1").recover()

    def test_meta_pins_across_reopen(self, tmp_path):
        with StreamCheckpointer(tmp_path, kind="t/1") as ckpt:
            ckpt.recover()
            ckpt.append("a")
            ckpt.snapshot({"n": 1})
        with StreamCheckpointer(tmp_path, kind="other/1") as wrong_kind:
            # The snapshot does not validate under another kind, and the
            # rotated WAL no longer reaches record 0.
            with pytest.raises(DurabilityError):
                wrong_kind.recover()

    def test_closed_journal_refuses_writes(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        with pytest.raises(DurabilityError):
            ckpt.append("before recover")
        ckpt.recover()
        ckpt.close()
        with pytest.raises(DurabilityError):
            ckpt.append("after close")
        with pytest.raises(DurabilityError):
            ckpt.recover()

    def test_series_fingerprint_is_content_addressed(self):
        one = FeatureSeries([{"a", "b"}, {"c"}])
        two = FeatureSeries([{"b", "a"}, {"c"}])
        other = FeatureSeries([{"a"}, {"c"}])
        assert series_fingerprint(one) == series_fingerprint(two)
        assert series_fingerprint(one) != series_fingerprint(other)
        assert series_fingerprint(one) == one.content_digest()
        assert series_fingerprint([["b", "a"], ["c"]]) == series_fingerprint(one)


# ---------------------------------------------------------------------------
# Serve configuration wiring
# ---------------------------------------------------------------------------


class TestResilienceContext:
    def test_create_wires_the_knobs(self):
        app = MiningApp(
            ServeConfig(concurrency=3, max_pending=5, request_timeout_s=7.0)
        )
        try:
            assert app.config.max_pending == 5
            assert app._executor._max_workers == 3
            assert app.config.request_timeout_s == 7.0
        finally:
            app.close()

    def test_journal_requires_run_key(self, tmp_path):
        with pytest.raises(DurabilityError):
            StreamCheckpointer(tmp_path, kind="t/1", keep=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ServeError):
            MiningApp(ServeConfig(request_timeout_s=-1.0))

    def test_journal_free_context_is_a_no_op(self, tmp_path):
        app = serve_app(stream_state_dir=None)
        try:
            assert app.persist_streams() == 0
        finally:
            app.close()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Failure handling: the serve pipeline and the recovery ladder
# ---------------------------------------------------------------------------


def _checkpointed(tmp_path, snapshots: int) -> None:
    """A WAL of 12 records with ``snapshots`` snapshots along the way."""
    with StreamCheckpointer(tmp_path, kind="t/1", keep=3) as ckpt:
        ckpt.recover()
        for value in range(12):
            ckpt.append(value)
            if value % 4 == 3 and value // 4 < snapshots:
                ckpt.snapshot({"through": value})


class TestRunShards:
    def test_fatal_error_aborts_without_retry(self):
        app = serve_app()
        try:
            status, _ = call(app, mine_request("s", 0))
            assert status == 400
            assert app.counters["mined"] == 0
        finally:
            app.close()

    def test_attempt_budget_is_honored(self):
        app = serve_app(max_pending=2)
        try:
            app._pending = 2
            assert call(app, mine_request("s", 4))[0] == 429
            assert app.counters["rejected_busy"] == 1
            assert app.counters["mined"] == 0
        finally:
            app._pending = 0
            app.close()

    def test_expired_deadline_raises_shard_timeout(self, monkeypatch):
        app = serve_app(request_timeout_s=0.02)
        release = threading.Event()
        real = app._mine_blocking

        def hanging(*args):
            release.wait(5.0)
            return real(*args)

        monkeypatch.setattr(app, "_mine_blocking", hanging)
        try:
            status, payload = call(app, mine_request("s", 4))
        finally:
            release.set()
            app.close()
        assert status == 504 and payload["reason"] == "deadline"
        assert app.counters["timeouts"] == 1

    def test_serial_timeout_marks_and_recovers_in_parent(self):
        app = serve_app()
        try:
            assert call(app, mine_request("s", 4, min_conf=2.0))[0] == 400
            status, payload = call(app, mine_request("s", 4))
        finally:
            app.close()
        assert status == 200
        expected = mine_single_period_hitset(random_series(7, 80), 4, 0.4)
        assert len(payload["result"]["patterns"]) == len(expected)

    def test_pool_timeout_feeds_retry_ladder(self, tmp_path):
        _checkpointed(tmp_path, snapshots=2)
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        newest.write_bytes(newest.read_bytes()[:20])
        with StreamCheckpointer(tmp_path, kind="t/1", keep=3) as ckpt:
            recovered = ckpt.recover()
        assert recovered.snapshots_skipped == 1
        assert recovered.state == {"through": 3}
        assert recovered.tail == list(range(4, 12))

    def test_broken_pool_walks_the_ladder(self, tmp_path):
        _checkpointed(tmp_path, snapshots=0)
        with StreamCheckpointer(tmp_path, kind="t/1", keep=3) as ckpt:
            recovered = ckpt.recover()
        assert recovered.state is None
        assert recovered.tail == list(range(12))

    def test_demotion_is_sticky_across_calls(self, tmp_path):
        _checkpointed(tmp_path, snapshots=2)
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        newest.write_bytes(b"torn")
        with StreamCheckpointer(tmp_path, kind="t/1", keep=3) as ckpt:
            ckpt.recover()
            ckpt.snapshot({"through": 11})
        with StreamCheckpointer(tmp_path, kind="t/1", keep=3) as ckpt:
            recovered = ckpt.recover()
        assert recovered.state == {"through": 11}
        assert recovered.tail == [] and recovered.snapshots_skipped == 0

    def test_ladder_bottom_falls_back_to_parent_retries(self, tmp_path):
        _checkpointed(tmp_path, snapshots=2)
        for snapshot in tmp_path.glob("snapshot-*.json"):
            snapshot.write_bytes(b"torn")
        # The WAL before the first snapshot was pruned away: nothing can
        # be recovered exactly, and recovery says so.
        assert not (tmp_path / "wal-000000000000.jsonl").exists()
        with pytest.raises(DurabilityError, match="cannot recover exactly"):
            StreamCheckpointer(tmp_path, kind="t/1").recover()

    def test_empty_error_message_falls_back_to_repr(self):
        app = serve_app()
        try:
            status, payload = call(
                app, Request(method="POST", path="/mine", body=b"{}")
            )
        finally:
            app.close()
        assert status == 400 and payload["error"]

    def test_resume_skips_completed_shards(self, tmp_path):
        feed = records(3)
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out)
        for record in feed[:30]:
            first.feed(record)
        first.checkpoint()
        hard_kill(first)
        second = durable(tmp_path / "ckpt", out)
        assert second.resumed and second.records_logged == 30
        assert second.recovery.replayed == 0
        for record in feed[30:]:
            second.feed(record)
        second.finish()
        assert out.read_text().splitlines() == reference_lines(feed)

    def test_partial_journal_runs_only_missing_shards(self, tmp_path):
        feed = records(4)
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out, checkpoint_every=10)
        for record in feed[:25]:
            first.feed(record)
        hard_kill(first)
        second = durable(tmp_path / "ckpt", out, checkpoint_every=10)
        assert second.records_logged == 25
        assert second.recovery.replayed == 5  # only records past the snapshot
        for record in feed[25:]:
            second.feed(record)
        second.finish()
        assert out.read_text().splitlines() == reference_lines(feed)


# ---------------------------------------------------------------------------
# File-fault injection
# ---------------------------------------------------------------------------


class TestChaosHarness:
    def test_every_fault_site_is_reachable(self, tmp_path):
        for fault in ("torn", "truncate", "stale-tmp"):
            rates = {
                "torn": {"torn_rate": 1.0},
                "truncate": {"truncate_rate": 1.0},
                "stale-tmp": {"stale_tmp_rate": 1.0},
            }[fault]
            chaos = FileChaos(FileChaosConfig(seed=1, **rates))
            directory = tmp_path / fault
            path = SnapshotWriter(directory, chaos=chaos).write(
                "s.json", kind="t/1", payload={"k": 1}
            )
            assert chaos.injected == {fault: 1}
            if fault == "stale-tmp":
                assert not path.exists()
                assert [p.name for p in directory.iterdir()][0].startswith(
                    "s.json.tmp."
                )
            else:
                assert path.exists()

    def test_injection_is_reproducible(self):
        config = FileChaosConfig(
            seed=5, torn_rate=0.2, truncate_rate=0.2, stale_tmp_rate=0.2
        )
        one, two = FileChaos(config), FileChaos(config)
        assert [one.next_fault() for _ in range(50)] == [
            two.next_fault() for _ in range(50)
        ]
        assert one.injected == two.injected and one.writes == 50

    def test_crash_and_empty_faults_raise_expected_types(self, tmp_path):
        for rates in ({"torn_rate": 1.0}, {"truncate_rate": 1.0},
                      {"stale_tmp_rate": 1.0}):
            directory = tmp_path / next(iter(rates))
            writer = SnapshotWriter(
                directory, chaos=FileChaos(FileChaosConfig(seed=2, **rates))
            )
            path = writer.write("s.json", kind="t/1", payload={"k": 1})
            with pytest.raises(SnapshotCorruption):
                read_snapshot(path)

    def test_retry_rounds_draw_fresh_faults(self):
        chaos = FileChaos(FileChaosConfig(seed=9, torn_rate=0.5))
        faults = [chaos.next_fault() for _ in range(40)]
        assert "torn" in faults and None in faults
        assert chaos.writes == 40

    def test_name_is_transparent_and_demotion_rewraps(self, tmp_path):
        # A write that draws no fault is byte-identical to a clean write
        # at the same path.
        quiet = FileChaos(FileChaosConfig(seed=3))
        chaotic = SnapshotWriter(tmp_path / "a", chaos=quiet).write(
            "s.json", kind="t/1", payload={"k": 2}
        )
        clean = SnapshotWriter(tmp_path / "b").write(
            "s.json", kind="t/1", payload={"k": 2}
        )
        assert chaotic.name == clean.name
        assert chaotic.read_bytes() == clean.read_bytes()
        assert quiet.injected == {} and quiet.writes == 1

    def test_rejects_bad_rates(self):
        with pytest.raises(DurabilityError):
            FileChaosConfig(seed=1, torn_rate=-0.1)
        with pytest.raises(DurabilityError):
            FileChaosConfig(seed=1, torn_rate=0.6, stale_tmp_rate=0.6)
        with pytest.raises(DurabilityError):
            FileChaos.inflict("gremlins", "unused", b"")

    def test_chaos_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_FILE_SEED", raising=False)
        assert file_chaos_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "11")
        monkeypatch.setenv("REPRO_CHAOS_FILE_RATES", "0.2,0.1,0.1")
        chaos = file_chaos_from_env()
        assert chaos is not None and chaos.config == FileChaosConfig(
            seed=11, torn_rate=0.2, truncate_rate=0.1, stale_tmp_rate=0.1
        )
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "eleven")
        with pytest.raises(DurabilityError):
            file_chaos_from_env()
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "11")
        monkeypatch.setenv("REPRO_CHAOS_FILE_RATES", "0.2")
        with pytest.raises(DurabilityError):
            file_chaos_from_env()

    def test_env_chaos_wraps_spec_resolved_backends(
        self, monkeypatch, tmp_path, capsys
    ):
        # `ppm stream --checkpoint-dir` picks up file chaos from the
        # environment and still writes the uninterrupted output.
        from repro.cli import main
        from repro.timeseries.io import save_series

        feed = records(6)
        source = tmp_path / "feed.txt"
        save_series(FeatureSeries([set(r) for r in feed]), source)
        args = [
            "stream", str(source), "--period", "3", "--window", "9",
            "--slide", "3", "--min-conf", "0.6",
        ]
        assert main(args) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "4")
        monkeypatch.setenv("REPRO_CHAOS_FILE_RATES", "0.4,0.2,0.2")
        assert main(
            args + ["--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--checkpoint-every", "3"]
        ) == 0
        assert capsys.readouterr().out == clean


# ---------------------------------------------------------------------------
# Killed-and-resumed streams
# ---------------------------------------------------------------------------


class TestMinerResume:
    def test_killed_run_resumes_without_rerunning_shards(self, tmp_path):
        feed = records(8)
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out)
        for record in feed[:33]:
            first.feed(record)
        hard_kill(first)
        second = durable(tmp_path / "ckpt", out)
        assert second.resumed and second.records_logged == 33
        assert second.recovery.replayed < 33
        for record in feed[second.records_logged:]:
            second.feed(record)
        second.finish()
        assert out.read_text().splitlines() == reference_lines(feed)

    def test_completed_journal_replays_everything(self, tmp_path):
        feed = records(9)
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out)
        for record in feed:
            first.feed(record)
        first.close()
        before = out.read_text()
        again = durable(tmp_path / "ckpt", out)
        assert again.resumed and again.records_logged == len(feed)
        again.close()
        assert out.read_text() == before  # replayed windows deduplicated

    def test_resume_rejects_changed_parameters(self, tmp_path):
        out = tmp_path / "out.jsonl"
        first = durable(tmp_path / "ckpt", out)
        for record in records(10)[:20]:
            first.feed(record)
        first.close()
        with pytest.raises(DurabilityError, match="different stream parameters"):
            durable(tmp_path / "ckpt", out, min_conf=0.7)

    def test_deadline_cut_run_is_resumable(self, tmp_path, capsys):
        # The CLI path: a run cut short resumes with `ppm stream --resume`.
        from repro.cli import main
        from repro.timeseries.io import save_series

        feed = records(12)
        whole = tmp_path / "whole.txt"
        save_series(FeatureSeries([set(r) for r in feed]), whole)
        args = ["--period", "3", "--window", "9", "--slide", "3",
                "--min-conf", "0.6"]
        assert main(["stream", str(whole), *args]) == 0
        reference = capsys.readouterr().out
        out = tmp_path / "out.jsonl"
        ckpt = tmp_path / "ckpt"
        first = durable(ckpt, out)
        for record in feed[:29]:
            first.feed(record)
        hard_kill(first)
        assert main(
            ["stream", str(whole), *args, "--checkpoint-dir", str(ckpt),
             "--checkpoint-every", "4", "--resume", "--out", str(out)]
        ) == 0
        assert out.read_text() == reference
