"""Rewrite the golden tables: every CSV of every builtin scenario's default
config, as ``entroflow run`` writes it, into this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only after a change that moves a table on purpose, and say in the
change which columns moved and why; ``tests/test_acceptance.py`` compares
the default runs against these files, within the tolerances of
``tests/test_golden.py``.
"""

import shutil
import tempfile
from pathlib import Path

from entroflow.scenarios import DEFAULT_CONFIGS, run_config

GOLDEN = Path(__file__).resolve().parent


def main() -> None:
    for name, config in DEFAULT_CONFIGS.items():
        with tempfile.TemporaryDirectory() as out:
            report = run_config(config, out)
            for table in report.outputs:
                shutil.copyfile(table, GOLDEN / Path(table).name)
                print(f"{name}: {Path(table).name}")


if __name__ == "__main__":
    main()
