import numpy as np

from entroflow._util import write_csv


def test_write_csv_formats_numbers_with_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "x", "n"], [("a", np.float64(0.1), 2), ("b", 1e-20, "")])
    assert path.read_text() == "name,x,n\na,0.1,2.0\nb,1e-20,\n"
