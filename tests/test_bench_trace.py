"""The benchmark's traced run still works against the current package.

`bench/tracing.py` rebinds package functions by module attribute (such as
``reconstruct.cpsd_f``), so a change in `src/` that drops one of those
bindings breaks ``bench/run.py --trace 1``. This runs it as a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_recon_p20_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", "recon-p20", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["failed"] == 0
