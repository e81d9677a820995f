import tracemalloc

import pytest

from agrodiag.errors import DomainError
from agrodiag.serialize import (
    CSV_CHUNK_LINES,
    csv_chunks,
    csv_text,
    json_text,
    write_artifacts,
)


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
        # ~1 MB, as 1,024 chunks or as one text: neither the whole text nor
        # an encoded copy of it is built while it is written
        tail = "\u00e9" * 500 + "x" * 515 + "\n"
        lines = [f"{i:07d},{tail}" for i in range(1024)]
        want = "".join(lines)
        text = iter(lines) if form == "chunks" else want
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_artifacts(tmp_path / "o", [("big.csv", text)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = (tmp_path / "o" / "big.csv").read_bytes()
        assert written == want.encode("utf-8") and len(written) > 1 << 20
        assert peak < len(written) / 4

    def test_texts_and_chunks_are_written_alike(self, tmp_path):
        write_artifacts(tmp_path, iter([
            ("y.json", "{}\n"), ("x.csv", iter(["a\n", "", "1\r\n"]))]))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "x.csv": b"a\n1\r\n", "y.json": b"{}\n"}

    def test_a_failed_artifact_leaves_no_directory_it_made(self, tmp_path):
        def artifacts():
            yield "x.csv", "a\n"
            raise DomainError("y.json: failed")

        with pytest.raises(DomainError, match="y.json: failed"):
            write_artifacts(tmp_path / "new" / "o", artifacts())
        assert list(tmp_path.iterdir()) == []
