"""The benchmark's own self-tests, run with this suite.

They pin which library helpers each benchmark workload drives (forward
case 4 calling ``_match_down`` on enumerate-stream, for one), so a change
to the library that breaks a workload's predictions fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
