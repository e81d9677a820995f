"""The value classes' shared base: construction, equality, hashing, repr,
immutability and pickling."""
from __future__ import annotations

import copy
import pickle

import pytest

from agrodiag._record import Record
from agrodiag.advantage import AreaShareTable
from agrodiag.config import RunConfig, load_run_config
from agrodiag.panel import PriceSeries
from agrodiag.pipeline import Run
from agrodiag.tree import Predicate


class Row(Record, frozen=True):
    """Five fields and no defaults; pickled by reference, so module-level."""

    crop_id: str
    year: int
    area: float
    production: float
    price: float


def obs(**changes):
    fields = dict(crop_id="paddy", year=2005, area=1.0, production=2.0,
                  price=3.0)
    return Row(**{**fields, **changes})


class TestRecord:
    def test_positional_and_keyword_fields_agree(self):
        assert Row("paddy", 2005, 1.0, production=2.0, price=3.0) == obs()

    def test_defaults_fill_missing_fields(self):
        predicate = Predicate("x", ">", threshold=1.0)
        assert (predicate.threshold, predicate.tolerance) == (1.0, None)

    @pytest.mark.parametrize("args, kwargs", [
        (("paddy", 2005, 1.0, 2.0), {}),                  # missing
        (("paddy", 2005, 1.0, 2.0, 3.0, 4.0), {}),        # too many
        (("paddy", 2005, 1.0, 2.0), {"crop_id": "x"}),    # repeated
        (("paddy", 2005, 1.0, 2.0, 3.0), {"colour": 1}),  # unknown
    ])
    def test_bad_arguments_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^Row\(\) takes"):
            Row(*args, **kwargs)

    def test_equality_and_hash_follow_the_fields(self):
        assert obs() == obs() and hash(obs()) == hash(obs())
        assert obs() != obs(price=4.0)
        assert obs().__eq__(("paddy", 2005, 1.0, 2.0, 3.0)) is NotImplemented

    def test_repr_names_every_field(self):
        assert repr(obs()) == ("Row(crop_id='paddy', year=2005, "
                               "area=1.0, production=2.0, price=3.0)")

    def test_frozen_refuses_assignment_and_deletion(self):
        record = obs()
        for slotted in (record, PriceSeries("wheat", {2001: 650.0})):
            assert not hasattr(slotted, "__dict__")
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'price'$"):
            record.price = 4.0
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'price'$"):
            del record.price
        assert record == obs()

    def test_extra_slot_is_no_field(self):
        table = AreaShareTable("region", 2015, {"veg": 30.0, "fruit": 70.0})
        assert table.total == 100.0
        assert repr(table) == ("AreaShareTable(scope='region', year=2015, "
                               "entries={'fruit': 70.0, 'veg': 30.0})")
        with pytest.raises(TypeError):
            AreaShareTable("region", 2015, {"veg": 1.0}, total=1.0)

    def test_lazy_annotations_are_refused(self):
        # a class body compiled without ``from __future__ import
        # annotations`` on Python 3.14+ has ``__annotate__`` only
        with pytest.raises(TypeError, match="from __future__ import"):
            type(Record)("Lazy", (Record,), {"__annotate__": lambda f: {}})

    def test_run_config_is_mutable_and_unhashable(self, fixture_dir):
        config = load_run_config(fixture_dir / "config.json")
        assert isinstance(config, RunConfig)
        config.tree = "other.json"
        assert config.tree == "other.json"
        with pytest.raises(TypeError, match="unhashable"):
            hash(config)
        run = Run(config)
        assert run.config is config and hasattr(run, "__dict__")

    @pytest.mark.parametrize("record", [
        obs(), PriceSeries("wheat", {2001: 650.0}),
        AreaShareTable("region", 2015, {"veg": 30.0, "fruit": 70.0}),
    ])
    def test_pickle_and_copy_give_equal_records(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record
