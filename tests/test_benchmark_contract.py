"""The benchmark in perfbench/ binds qchan's public names; they must stay.

The check runs in a subprocess because ``spans.install`` rebinds qchan
functions in every loaded qchan module, which would leak into the tests
that share this process.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import qchan.cli

    import oracle
    import spans
    import worker
    import workloads

    rebinds = spans.install(spans.Tracer())
    assert rebinds > 0, rebinds
    request = workloads.WARMUP_REQUEST
    problems = oracle.check_verdict(request, worker.verdict(request))
    assert problems == [], problems
    """
)


def test_benchmark_traces_and_runs_a_verdict():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_every_traced_function_resolves():
    # qchan's package and CLI load the numeric modules lazily, so a traced
    # name must resolve once its module is imported, from its old home.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"qchan.{module}"), attr)), (module, attr)
