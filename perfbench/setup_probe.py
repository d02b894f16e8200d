"""Set-up as a user pays it: a fresh interpreter imports novikov.cli and
builds or loads every model of a workload.

    python3 perfbench/setup_probe.py <json list of model specs>
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from novikov.cli import resolve_model  # noqa: E402

with open(sys.argv[1]) as fh:
    for spec in json.load(fh):
        resolve_model(spec)
