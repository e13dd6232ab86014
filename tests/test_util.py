import numpy as np
import pytest

from entroflow._util import (
    central_difference,
    one_sided_difference,
    time_derivative,
    write_csv,
)


def quadratic(t):
    return 3.0 * t * t - 2.0 * t + 0.5


def quadratic_slope(t):
    return 6.0 * t - 2.0


@pytest.mark.parametrize("stencil", [central_difference, one_sided_difference])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
def test_stencils_exact_on_quadratics(stencil, t):
    assert stencil(quadratic, t, 1e-2) == pytest.approx(quadratic_slope(t), abs=1e-10)


def test_time_derivative_never_looks_before_zero():
    calls = []

    def recorded(t):
        calls.append(t)
        return quadratic(t)

    h = 0.1
    assert time_derivative(recorded, 0.05, h) == pytest.approx(quadratic_slope(0.05), abs=1e-12)
    assert calls == pytest.approx([0.05, 0.15, 0.25])
    calls.clear()
    assert time_derivative(recorded, 0.5, h) == pytest.approx(quadratic_slope(0.5), abs=1e-12)
    assert calls == pytest.approx([0.6, 0.4])


def test_write_csv_formats_numbers_with_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "x", "n"], [("a", np.float64(0.1), 2), ("b", 1e-20, "")])
    assert path.read_text() == "name,x,n\na,0.1,2.0\nb,1e-20,\n"
