"""Set-up cost of one CLI call: a fresh interpreter imports the package,
parses a config and builds the model.

    python3 perfbench/probe.py CONFIG
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import qsysid  # noqa: E402,F401  (the full import every CLI call pays)
from qsysid.io import parse_config  # noqa: E402
from qsysid.model import build_model  # noqa: E402

build_model(parse_config(sys.argv[1]).model_params())
