import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow._util import refine_brackets, write_csv


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


def _bracketed(kind, sign, t, r):
    """Functions with one change of side (f < 0, NaN non-negative) at r,
    negative before it for sign = 1 and after it for sign = -1."""
    x = sign * (t - r)
    with np.errstate(invalid="ignore"):
        return np.select([kind == 0, kind == 1, kind == 2],
                         [np.expm1(x) + 0.3 * np.sin(7.0 * x),  # smooth
                          np.sign(x) * np.sqrt(np.abs(x)),      # cusp
                          np.where(x < 0.0, -1.0, 2.0)],        # step
                         np.where(x < 0.0, x, np.nan))          # NaN past the root


_LOG_WIDTHS = st.floats(-12.0, -3.0)
_BRACKET = st.tuples(st.integers(0, 3), st.sampled_from([1.0, -1.0]), st.floats(0.0, 10.0),
                     st.floats(-12.0, 0.0), st.floats(0.05, 0.95), _LOG_WIDTHS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_BRACKET, min_size=1, max_size=8), st.one_of(st.none(), _LOG_WIDTHS))
def test_refine_brackets_narrows_every_bracket_around_its_change_of_side(brackets, scalar):
    # Per-bracket widths, or one scalar width, from 1e-12 to 1e-3; initial
    # brackets from 1e-12 to 1 wide, some already narrower than their width.
    kind, sign, lo, log_span, place, log_width = (np.array(c) for c in zip(*brackets))
    hi = lo + 10.0 ** log_span
    root = lo + place * (hi - lo)
    width = 10.0 ** (log_width if scalar is None else np.full(len(lo), scalar))
    f = lambda index, t: _bracketed(kind[index], sign[index], t, root[index])
    every = np.arange(len(lo))
    assert np.all((f(every, lo) < 0.0) != (f(every, hi) < 0.0))
    calls = []

    def evaluate(index, times):
        calls.append(index)
        return f(index, times)

    new_lo, new_hi = refine_brackets(evaluate, lo, hi, f(every, lo), f(every, hi),
                                     width if scalar is None else 10.0 ** scalar)
    assert np.all((lo <= new_lo) & (new_lo < new_hi) & (new_hi <= hi))
    assert np.all(new_hi - new_lo <= width)
    assert np.all((f(every, new_lo) < 0.0) != (f(every, new_hi) < 0.0))
    # one call per round, in which each round at least halves every bracket
    # it evaluates; a bracket no wider than its width is never evaluated
    rounds = np.array([sum(k in index for index in calls) for k in every])
    assert np.all(rounds <= np.ceil(np.log2(np.maximum((hi - lo) / width, 1.0))))
    assert np.all(rounds[hi - lo <= width] == 0)
