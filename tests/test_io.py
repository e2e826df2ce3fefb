"""Unit tests for series persistence (repro.timeseries.io)."""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SeriesError
from repro.synth.workloads import figure2_series
from repro.timeseries.feature_series import FeatureSeries, series_fingerprint
from repro.timeseries import io
from repro.timeseries.io import (
    LoadReport,
    iter_slot_lines,
    load_series,
    save_series,
)
from tests.reference import per_line_load

EDGE_CASES = Path(__file__).parent / "fixtures" / "ingest_edge_cases.txt"


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        series = FeatureSeries([{"a", "b"}, set(), {"c"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert load_series(path) == series

    def test_empty_slots_preserved(self, tmp_path):
        series = FeatureSeries([set(), set(), {"x"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        loaded = load_series(path)
        assert len(loaded) == 3
        assert loaded[0] == frozenset()

    def test_multichar_features_preserved(self, tmp_path):
        series = FeatureSeries([{"high_traffic", "promo"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert load_series(path)[0] == frozenset({"high_traffic", "promo"})

    def test_empty_series(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries([]), path)
        assert len(load_series(path)) == 0


class TestFormat:
    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("# comment\na b\n# another\nc\n")
        loaded = load_series(path)
        assert len(loaded) == 2
        assert loaded[0] == frozenset({"a", "b"})

    def test_header_written(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries([{"a"}]), path)
        assert path.read_text().startswith("#")

    def test_streaming_iterator(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries.from_symbols("abc"), path)
        slots = list(iter_slot_lines(path))
        assert slots == [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesError):
            load_series(tmp_path / "nope.txt")


class TestCsvLoading:
    def test_numeric_column(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("day,close\n0,100.5\n1,101.25\n")
        assert load_numeric_csv(path, "close") == [100.5, 101.25]

    def test_numeric_missing_column(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("day,close\n0,100.5\n")
        with pytest.raises(SeriesError):
            load_numeric_csv(path, "volume")

    def test_numeric_bad_value_reports_line(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("close\n100.5\noops\n")
        with pytest.raises(SeriesError, match=":3:"):
            load_numeric_csv(path, "close")

    def test_numeric_empty_file(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("close\n")
        with pytest.raises(SeriesError):
            load_numeric_csv(path, "close")

    def test_numeric_missing_file(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        with pytest.raises(SeriesError):
            load_numeric_csv(tmp_path / "nope.csv", "close")

    def test_events_csv(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("time,feature\n0.5,promo\n6.2,rush\n")
        database = load_events_csv(path)
        assert len(database) == 2
        assert database.events[0].feature == "promo"

    def test_events_csv_custom_columns(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("ts,what\n1.0,x\n")
        database = load_events_csv(
            path, time_column="ts", feature_column="what"
        )
        assert database.events[0].time == 1.0

    def test_events_csv_bad_rows(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("time,feature\nnan?,x\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)
        path.write_text("time,feature\n1.0,\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)
        path.write_text("time,other\n1.0,x\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)


class TestMalformedLines:
    """Strict loads fail with file:line; lenient loads quarantine."""

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a b\n\xff\xfe broken\nc\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*UTF-8"):
            load_series(path)

    def test_control_characters_name_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\nb\x07\nc\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*control"):
            load_series(path)

    def test_reserved_wildcard_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\n*\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*wildcard"):
            load_series(path)

    @pytest.mark.parametrize("feature", ["a,b", "}", "{x", "{y}", "x*"])
    def test_reserved_pattern_characters_name_file_and_line(
        self, tmp_path, feature
    ):
        # Pattern text groups features as {f1,f2}: a feature holding one
        # of these characters would print as text that parses back as
        # other features, or not at all.
        path = tmp_path / "series.txt"
        path.write_text(f"a\nb {feature}\nc\n")
        with pytest.raises(
            SeriesError, match=r"series\.txt:2: .*reserved pattern character"
        ):
            load_series(path)
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        assert [set(slot) for slot in series] == [{"a"}, {"c"}]
        assert [q.line for q in report.quarantined] == [2]
        assert "reserved pattern character" in report.quarantined[0].reason

    def test_lenient_load_quarantines_and_reports(self, tmp_path):
        from repro.timeseries.io import LoadReport

        path = tmp_path / "series.txt"
        path.write_bytes(b"a b\n\xff bad\nc\nd*\ne\n")
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        # Quarantined lines are dropped: later slots shift up.
        assert [set(slot) for slot in series] == [{"a", "b"}, {"c"}, {"e"}]
        assert not report.clean
        assert [(q.line, q.path) for q in report.quarantined] == [
            (2, str(path)),
            (4, str(path)),
        ]
        assert "UTF-8" in report.quarantined[0].reason
        assert "wildcard" in report.quarantined[1].reason
        described = report.quarantined[1].describe()
        assert described.startswith(f"{path}:4:")
        assert "d*" in described

    def test_lenient_load_without_report_just_skips(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\n*\nb\n")
        series = load_series(path, strict=False)
        assert [set(slot) for slot in series] == [{"a"}, {"b"}]

    def test_clean_file_keeps_report_clean(self, tmp_path):
        from repro.timeseries.io import LoadReport

        path = tmp_path / "series.txt"
        save_series(FeatureSeries.from_symbols("abab"), path)
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        assert report.clean
        assert len(series) == 4

    def test_crlf_lines_do_not_trip_control_check(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a\r\nb\r\n")
        series = load_series(path)
        assert [set(slot) for slot in series] == [{"a"}, {"b"}]


#: Whole lines, valid and malformed, drawn with repetition.
LINE_POOL = [
    b"a b",
    b"b a",
    b"a",
    b"c d e",
    b"",
    b"   ",
    b"a\tb",
    b"\xc3\xa9t\xc3\xa9",
    b"# comment",
    b"#",
    b"\xff\xfe broken",
    b"ok \xc3",
    b"*",
    b"a *",
    b"d*",
    b"x\x07y",
    b"a \x00",
    b"\x7f",
    b"a\x1cb",
    b"a\rb",
    b"a,b",
    b"{x} y",
    b"}",
    b"d* {",
]

lines_strategy = st.lists(
    st.one_of(
        st.sampled_from(LINE_POOL),
        # Short arbitrary bytes: stray separators, control bytes and
        # truncated UTF-8 sequences.
        st.binary(max_size=6).map(lambda raw: raw.replace(b"\n", b" ")),
    ),
    max_size=40,
)


def write_lines(
    path: Path, lines: list[bytes], crlf: list[bool], final_newline: bool
) -> None:
    ends = [b"\r\n" if flag else b"\n" for flag in crlf]
    body = b"".join(line + end for line, end in zip(lines, ends))
    if lines and not final_newline:
        body = body[: -len(ends[len(lines) - 1])]
    path.write_bytes(body)


class TestIngestEquivalence:
    """The validate-once loader against a per-line reference parser."""

    @settings(max_examples=200, deadline=None)
    @given(
        lines=lines_strategy,
        crlf=st.lists(st.booleans(), min_size=40, max_size=40),
        final_newline=st.booleans(),
        # Read chunks from one short line up to the whole file.
        chunk_bytes=st.sampled_from([1, 2, 5, 16, 64, io.READ_CHUNK_BYTES]),
    )
    def test_matches_per_line_reference(
        self, tmp_path_factory, lines, crlf, final_newline, chunk_bytes
    ):
        path = tmp_path_factory.mktemp("ingest") / "series.txt"
        write_lines(path, lines, crlf, final_newline)

        slots, quarantined = per_line_load(path, strict=False)
        report = LoadReport()
        with mock.patch.object(io, "READ_CHUNK_BYTES", chunk_bytes):
            series = load_series(path, strict=False, report=report)
        assert list(series) == slots
        assert [
            (q.path, q.line, q.reason, q.content) for q in report.quarantined
        ] == [(str(path), *entry) for entry in quarantined]
        # Equal slots are one shared frozenset and one slot id.
        assert len({id(slot) for slot in series}) == len(set(series))
        column = series.slot_column()
        assert len(column.table.slots) == len(set(series))
        assert column.table.slots_of(column.ids) == tuple(slots)

        with mock.patch.object(io, "READ_CHUNK_BYTES", chunk_bytes):
            if quarantined:
                with pytest.raises(SeriesError) as raised:
                    load_series(path)
                with pytest.raises(SeriesError) as expected:
                    per_line_load(path)
                assert str(raised.value) == str(expected.value)
            else:
                assert list(load_series(path)) == slots

    def test_edge_case_fixture_matches_reference(self):
        slots, quarantined = per_line_load(EDGE_CASES, strict=False)
        report = LoadReport()
        assert list(load_series(EDGE_CASES, strict=False, report=report)) == (
            slots
        )
        assert [
            (q.line, q.reason, q.content) for q in report.quarantined
        ] == quarantined
        # Every occurrence of a repeated bad line is reported on its own.
        assert [line for line, _, _ in quarantined] == [
            9, 11, 15, 17, 18, 20, 24,
        ]
        with pytest.raises(SeriesError, match=r"ingest_edge_cases\.txt:9: "):
            load_series(EDGE_CASES)


class TestChunkedRead:
    """Files spanning many ``readlines`` chunks load as one pass would."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # 32 bytes is a few lines: every file below spans several chunks.
        monkeypatch.setattr(io, "READ_CHUNK_BYTES", 32)

    def test_multi_chunk_file_matches_reference(self, tmp_path):
        series = figure2_series(4, length=600, seed=3).series
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert path.stat().st_size > 20 * io.READ_CHUNK_BYTES
        loaded = load_series(path)
        assert loaded == series
        assert list(loaded) == per_line_load(path)[0]
        assert loaded.content_digest() == series.content_digest()

    def malformed_file(self, tmp_path) -> Path:
        """Clean lines, then the same bad line twice, both past chunk 1."""
        path = tmp_path / "series.txt"
        body = [b"a b", b"c"] * 20 + [b"d*"] + [b"a"] * 15 + [b"d*", b"e"]
        path.write_bytes(b"\n".join(body) + b"\n")
        return path

    def test_strict_names_the_exact_line_past_the_first_chunk(self, tmp_path):
        path = self.malformed_file(tmp_path)
        with pytest.raises(SeriesError, match=r"series\.txt:41: .*wildcard"):
            load_series(path)

    def test_lenient_quarantines_every_occurrence(self, tmp_path):
        path = self.malformed_file(tmp_path)
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        assert [q.line for q in report.quarantined] == [41, 57]
        assert all("wildcard" in q.reason for q in report.quarantined)
        assert len(series) == 40 + 15 + 1
        assert list(series) == per_line_load(path, strict=False)[0]

    def test_comments_and_crlf_straddling_chunks(self, tmp_path):
        path = tmp_path / "series.txt"
        lines = [
            b"# a comment as long as a whole read chunk"
            if index % 7 == 0
            else f"f{index % 5} g{index % 3}".encode()
            for index in range(60)
        ]
        body = b"".join(
            line + (b"\r\n" if index % 2 else b"\n")
            for index, line in enumerate(lines)
        )
        path.write_bytes(body.rstrip(b"\n").rstrip(b"\r"))  # no final newline
        loaded = load_series(path)
        assert list(loaded) == per_line_load(path)[0]
        assert len(loaded) == 60 - len(range(0, 60, 7))
        assert loaded[-1] == frozenset({"f4", "g2"})

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        header = tmp_path / "header.txt"
        save_series(FeatureSeries([]), header)
        for path in (empty, header):
            series = load_series(path)
            assert len(series) == 0
            assert list(series) == []
            assert series.content_digest() == FeatureSeries([]).content_digest()

    def test_digest_of_the_edge_fixture_is_unchanged(self):
        series = load_series(EDGE_CASES, strict=False)
        assert series.content_digest() == "6097aaff442a9f14"


class TestDigestGolden:
    """``content_digest`` values pinned from before ingest interning.

    ``--cache-dir`` entries and serve fingerprints key on these, so a
    change here orphans every stored artefact.
    """

    def test_edge_case_fixture(self):
        series = load_series(EDGE_CASES, strict=False)
        assert series.content_digest() == "6097aaff442a9f14"
        assert series_fingerprint(list(series)) == "6097aaff442a9f14"

    def test_figure2_series(self):
        series = figure2_series(6, length=20_000, seed=0).series
        assert series.content_digest() == "b8c24f8c090dd730"
        assert series_fingerprint(list(series)) == "b8c24f8c090dd730"

    def test_paper_symbols(self):
        series = FeatureSeries.from_symbols("abdabcabd")
        assert series.content_digest() == "ea0c86924bd8dce1"
        assert FeatureSeries(list(series)).content_digest() == (
            "ea0c86924bd8dce1"
        )
