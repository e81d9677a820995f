import pytest

from agrodiag.errors import DomainError
from agrodiag.serialize import CSV_CHUNK_LINES, csv_text, json_text


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
