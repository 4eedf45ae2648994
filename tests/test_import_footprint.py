"""Import footprint: scipy loads only where a baseline builds a sparse matrix.

The SSF engine, the serving core, the experiment runner and the CLI run on
numpy alone; scipy (about 25 MB of resident memory per process) is
imported inside the Katz/LP, RW, NMF, tNMF and Spectral baselines, on
their first fit.  The test shells out because ``sys.modules`` of the test
process already holds whatever earlier tests imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_CHILD_SCRIPT = """
import json
import sys

import repro
import repro.cli
import repro.experiments.runner
import repro.serve

def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))

at_import = scipy_modules()

from repro.baselines.paths import Katz
from repro.graph.temporal import DynamicNetwork

katz = Katz().fit(DynamicNetwork([("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]))
json.dump(
    {"at_import": at_import, "after_fit": scipy_modules(), "score": katz.score("a", "c")},
    sys.stdout,
)
"""


def test_scipy_loads_on_first_baseline_fit_not_on_import() -> None:
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    state = json.loads(result.stdout)
    assert state["at_import"] == []
    assert "scipy.sparse" in state["after_fit"]
    assert state["score"] > 0.0
