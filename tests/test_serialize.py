import pytest

from agrodiag.errors import DomainError
from agrodiag.serialize import csv_text, json_text


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
