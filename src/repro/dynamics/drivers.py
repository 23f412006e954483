"""Time-indexed exogenous driver variables.

Dynamic-process models import the values of *variable parameters* (the
paper's ``V``-prefixed quantities, Table IV) from observed data at each
evaluation time ``t``.  A :class:`DriverTable` stores those series in a
fixed column order so that compiled step functions can read them by
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


class DriverError(ValueError):
    """Raised for malformed driver tables."""


@dataclass(frozen=True)
class DriverTable:
    """A table of exogenous time series with a fixed column order.

    Attributes:
        names: Column names, in the order compiled models index them.
        values: Array of shape ``(T, len(names))``.
    """

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DriverError("driver values must be a 2-D array")
        if values.shape[1] != len(self.names):
            raise DriverError(
                f"driver table has {values.shape[1]} columns but "
                f"{len(self.names)} names"
            )
        if len(set(self.names)) != len(self.names):
            raise DriverError("duplicate driver column names")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    def from_mapping(cls, series: Mapping[str, Sequence[float]]) -> "DriverTable":
        """Build a table from name -> series, preserving mapping order."""
        names = tuple(series)
        if not names:
            raise DriverError("driver table needs at least one column")
        columns = [np.asarray(series[name], dtype=float) for name in names]
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise DriverError(f"driver columns differ in length: {sorted(lengths)}")
        return cls(names, np.column_stack(columns))

    def __len__(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        """Return one column by name."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise DriverError(f"no driver column named {name!r}") from None
        return self.values[:, index]

    def rows(self) -> list[tuple[float, ...]]:
        """Return rows as tuples of Python floats (fast positional access
        in inner loops).

        The values are Python floats, not ``numpy.float64``: arithmetic
        on a NumPy scalar returns a NumPy scalar, so one driver value
        would turn every state and error derived from it into one, and
        a compiled step over such rows runs ~3x slower with the same
        bits.  The list is computed once and cached (simulators call
        this on every fitness evaluation) but never pickled.
        """
        cached = getattr(self, "_rows_cache", None)
        if cached is None:
            cached = [tuple(row) for row in self.values.tolist()]
            object.__setattr__(self, "_rows_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        # The row cache is ~3x the table's own size; rebuild it lazily.
        state = dict(self.__dict__)
        state.pop("_rows_cache", None)
        return state

    def slice(self, start: int, stop: int) -> "DriverTable":
        """Return a time-sliced copy covering ``[start, stop)``."""
        if not 0 <= start <= stop <= len(self):
            raise DriverError(
                f"invalid slice [{start}, {stop}) for table of length {len(self)}"
            )
        return DriverTable(self.names, self.values[start:stop])

    def select(self, names: Iterable[str]) -> "DriverTable":
        """Return a copy restricted (and reordered) to ``names``."""
        names = tuple(names)
        indices = []
        for name in names:
            if name not in self.names:
                raise DriverError(f"no driver column named {name!r}")
            indices.append(self.names.index(name))
        return DriverTable(names, self.values[:, indices])

    def with_column(self, name: str, series: Sequence[float]) -> "DriverTable":
        """Return a copy with an extra (or replaced) column appended."""
        column = np.asarray(series, dtype=float)
        if column.shape != (len(self),):
            raise DriverError(
                f"column {name!r} has length {column.shape}, expected {len(self)}"
            )
        if name in self.names:
            values = self.values.copy()
            values[:, self.names.index(name)] = column
            return DriverTable(self.names, values)
        return DriverTable(
            self.names + (name,), np.column_stack([self.values, column])
        )
