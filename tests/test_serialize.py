import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag import serialize
from agrodiag.errors import DomainError
from agrodiag.serialize import (
    CSV_CHUNK_LINES,
    csv_chunks,
    csv_text,
    json_chunks,
    json_text,
    write_artifacts,
)

from helpers import canonical

# JSON documents as artifacts hold them: nested objects and arrays of
# finite floats (extremes and signed zeros included), ints and text
JSON_VALUES = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, -1e-7, 123456.5]),
              st.integers(), st.text(), st.booleans(), st.none()),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=50)


def dumped(obj) -> str:
    """OBJ as ``json.dumps`` gives the canonical form, plus a newline."""
    return json.dumps(canonical(obj), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


class TestNonFiniteNumbers:
    def test_json_names_artifact_and_key_path(self):
        data = {"first": {"al_ratio": 0.5}, "stats": [{"cv": 1.0},
                                                      {"cv": float("-inf")}]}
        with pytest.raises(DomainError,
                           match=r"^x\.json: non-finite number -inf at key "
                                 r"'stats\[1\]\.cv'$"):
            json_text(data, "x.json")

    def test_csv_names_artifact_and_column(self):
        with pytest.raises(DomainError,
                           match="^x.csv: non-finite value nan in column 'b'$"):
            csv_text(["a", "b"], [(1, 2.0), (3, float("nan"))], "x.csv")

    def test_a_text_cell_reading_nan_is_kept(self):
        assert csv_text(["crop_id", "v"], [("nan", 1.5)], "x.csv") == \
            "crop_id,v\nnan,1.5\n"


class TestJsonChunks:
    @given(JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_chunks_join_to_json_dumps(self, obj):
        assert "".join(json_chunks(obj, "x.json")) == dumped(obj)

    @pytest.mark.parametrize("n_values", [
        0, CSV_CHUNK_LINES - 4, CSV_CHUNK_LINES - 3, CSV_CHUNK_LINES - 2,
        CSV_CHUNK_LINES - 1, 3 * CSV_CHUNK_LINES + 5,
    ])
    def test_each_chunk_joins_csv_chunk_lines_encoder_parts(self, n_values):
        # one part per value, plus the parts around them, on either side of
        # each chunk boundary
        obj = {"name": "r\u00e9gion", "values": [i / 7 for i in range(n_values)]}
        parts = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False
                                 ).iterencode(canonical(obj))
        chunks = list(json_chunks(obj, "x.json"))
        assert len(chunks) == len(list(parts)) // CSV_CHUNK_LINES + 1
        assert "".join(chunks) == dumped(obj) == json_text(obj, "x.json")

    def test_a_non_finite_number_after_a_chunk_names_its_key_path(self):
        chunks = json_chunks({"v": [1.5] * (2 * CSV_CHUNK_LINES) + [
            float("nan")]}, "x.json")
        assert next(chunks).startswith('{\n  "v": [\n    1.5,')
        with pytest.raises(DomainError, match=r"^x\.json: non-finite number "
                                              r"nan at key 'v\[2048\]'$"):
            list(chunks)


class TestCsvText:
    @pytest.mark.parametrize("n_rows", [
        0, 1, CSV_CHUNK_LINES - 2, CSV_CHUNK_LINES - 1, CSV_CHUNK_LINES,
        2 * CSV_CHUNK_LINES - 1, 3 * CSV_CHUNK_LINES + 5,
    ])
    def test_chunks_join_to_one_line_per_row(self, n_rows):
        # the header fills the first chunk's first line, so row counts on
        # either side of each chunk boundary are covered
        rows = [(i, f"c{i}", i / 7, True) for i in range(n_rows)]
        want = "a,b,c,d\n" + "".join(
            f"{i},c{i},{i / 7:.6g},true\n" for i in range(n_rows))
        assert csv_text(["a", "b", "c", "d"], iter(rows), "x.csv") == want

    def test_chunks_are_whole_lines_yielded_as_the_rows_come(self):
        def rows():
            yield from ((i,) for i in range(CSV_CHUNK_LINES))
            yield (float("inf"),)

        chunks = csv_chunks(["a"], rows(), "x.csv")
        first = next(chunks)
        assert first.endswith("\n") and first.count("\n") == CSV_CHUNK_LINES
        with pytest.raises(DomainError, match="^x.csv: non-finite value inf"):
            next(chunks)


class TestWriteArtifacts:
    @pytest.mark.parametrize("form", ["chunks", "text"])
    def test_a_large_artifact_is_written_in_slices(self, tmp_path, form):
        # ~1 MB, as 1,024 chunks or as one text made whole, one chunk:
        # neither the whole text nor an encoded copy of it is built while
        # it is written
        tail = "\u00e9" * 500 + "x" * 515 + "\n"
        lines = [f"{i:07d},{tail}" for i in range(1024)]
        want = "".join(lines)
        chunks = iter(lines) if form == "chunks" else [want]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_artifacts(tmp_path / "o", [("big.csv", chunks)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = (tmp_path / "o" / "big.csv").read_bytes()
        assert written == want.encode("utf-8") and len(written) > 1 << 20
        assert peak < len(written) / 4

    def test_texts_and_chunks_are_written_alike(self, tmp_path):
        # a text made whole is one chunk; others come as they are made
        write_artifacts(tmp_path, iter([
            ("y.json", ["{}\n"]), ("x.csv", iter(["a\n", "", "1\r\n"]))]))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "x.csv": b"a\n1\r\n", "y.json": b"{}\n"}

    def test_a_failed_artifact_leaves_no_directory_it_made(self, tmp_path):
        def artifacts():
            yield "x.csv", ["a\n"]
            raise DomainError("y.json: failed")

        with pytest.raises(DomainError, match="y.json: failed"):
            write_artifacts(tmp_path / "new" / "o", artifacts())
        assert list(tmp_path.iterdir()) == []

    def test_a_large_json_artifact_is_streamed(self, tmp_path):
        # ~1 MB of JSON: no list of every encoder part, no rounded copy of
        # the values nor the whole text is built, and a chunk's parts are
        # freed before it is written, so it peaks below a quarter of the
        # text, as a text written in slices does; ``json.dumps`` peaks at ~3x
        values = [f"{i:058d}" for i in range(1 << 14)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_artifacts(tmp_path, [("big.json", json_chunks(values))])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = (tmp_path / "big.json").read_bytes()
        assert written == dumped(values).encode("utf-8")
        assert len(written) > 1 << 20 and peak < len(written) / 4

    def test_a_json_artifact_failing_mid_stream_leaves_no_file(
            self, tmp_path, monkeypatch):
        (tmp_path / "x.json").write_text("previous\n")
        stage, written = serialize._stage, []
        monkeypatch.setattr(serialize, "_stage", lambda path, chunks: stage(
            path, (written.append(chunk) or chunk for chunk in chunks)))
        values = [1.5] * CSV_CHUNK_LINES + [float("inf")]
        with pytest.raises(DomainError, match=r"^x\.json: non-finite number "
                                              r"inf at key 'v\[1024\]'$"):
            write_artifacts(tmp_path, [("x.json", json_chunks({"v": values},
                                                              "x.json"))])
        assert len(written) == 1
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
            "x.json": "previous\n"}
