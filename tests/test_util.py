import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow._util import write_csv


def test_write_csv_formats_numbers_with_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "x", "n"], [["a", "b"], [np.float64(0.1), 1e-20], [2, ""]])
    assert path.read_text() == "name,x,n\na,0.1,2.0\nb,1e-20,\n"


def test_write_csv_refuses_columns_it_cannot_line_up(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["x", "y"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(path, ["name", "y"], [["a"], np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(path, ["x", "y", "z"], [np.zeros(2), np.zeros(2)])
    assert not path.exists()


def _either_sign(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


# repr switches to exponent notation below 1e-4 and from 1e16 on.
EDGES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.225073858507201e-308, 1e-4, 1e16,
         math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
         math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf)]
FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),
    _either_sign(st.floats(0.0, 2.2250738585072014e-308)),  # subnormals
    _either_sign(st.floats(9e-5, 1.1e-4)),
    _either_sign(st.floats(9e15, 1.1e16)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(FLOATS, max_size=40))
def test_float_array_column_writes_repr_of_every_float(tmp_path_factory, values):
    # A float64 array column is rendered from tolist(); each cell must read
    # exactly as repr(float(v)), the rule every other column follows cell by
    # cell, here fed the same values as numpy scalars.
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    column = np.array(values, dtype=float)
    write_csv(path, ["x", "y"], [column, list(column)])
    expected = [f"{repr(float(v))},{repr(float(v))}" for v in values]
    assert path.read_text().split("\n") == ["x,y", *expected, ""]
