"""Driver table behaviour."""

import pickle

import numpy as np
import pytest

from repro.dynamics.drivers import DriverError, DriverTable


def table() -> DriverTable:
    return DriverTable.from_mapping(
        {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}
    )


class TestConstruction:
    def test_from_mapping_preserves_order(self):
        assert table().names == ("a", "b")

    def test_length(self):
        assert len(table()) == 3

    def test_ragged_columns_rejected(self):
        with pytest.raises(DriverError):
            DriverTable.from_mapping({"a": [1.0], "b": [1.0, 2.0]})

    def test_empty_mapping_rejected(self):
        with pytest.raises(DriverError):
            DriverTable.from_mapping({})

    def test_duplicate_names_rejected(self):
        with pytest.raises(DriverError):
            DriverTable(("a", "a"), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DriverError):
            DriverTable(("a",), np.zeros((2, 2)))


class TestAccess:
    def test_column(self):
        assert table().column("b").tolist() == [4.0, 5.0, 6.0]

    def test_unknown_column(self):
        with pytest.raises(DriverError):
            table().column("nope")

    def test_rows_are_tuples(self):
        rows = table().rows()
        assert rows == [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)]
        # Python floats, not NumPy scalars: arithmetic on a NumPy scalar
        # returns one, and the scalar step loop runs ~3x slower on them.
        assert all(type(v) is float for row in rows for v in row)

    def test_rows_are_cached(self):
        t = table()
        assert t.rows() is t.rows()

    def test_pickle_leaves_out_the_row_cache(self):
        t = table()
        before = pickle.dumps(t)
        t.rows()
        assert pickle.dumps(t) == before

    def test_unpickled_table_rebuilds_its_rows(self):
        t = table()
        rows = t.rows()
        clone = pickle.loads(pickle.dumps(t))
        assert clone.rows() == rows
        assert all(type(v) is float for row in clone.rows() for v in row)


class TestTransforms:
    def test_slice(self):
        sliced = table().slice(1, 3)
        assert len(sliced) == 2
        assert sliced.column("a").tolist() == [2.0, 3.0]

    def test_slice_bounds_checked(self):
        with pytest.raises(DriverError):
            table().slice(2, 5)

    def test_select_reorders(self):
        selected = table().select(["b", "a"])
        assert selected.names == ("b", "a")
        assert selected.rows()[0] == (4.0, 1.0)

    def test_select_unknown_rejected(self):
        with pytest.raises(DriverError):
            table().select(["zzz"])

    def test_with_column_appends(self):
        extended = table().with_column("c", [7.0, 8.0, 9.0])
        assert extended.names == ("a", "b", "c")

    def test_with_column_replaces(self):
        replaced = table().with_column("a", [0.0, 0.0, 0.0])
        assert replaced.names == ("a", "b")
        assert replaced.column("a").tolist() == [0.0, 0.0, 0.0]

    def test_with_column_length_checked(self):
        with pytest.raises(DriverError):
            table().with_column("c", [1.0])
