"""The tripwire harness fails each kind of bad row and passes a good one."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tripwires import Row

PRINT = "import json; print(json.dumps({'edges': 3}))"
# exit 2 with an error: line last, but a traceback before it
TRACEBACK = """
import sys, traceback
try:
    1 / 0
except ZeroDivisionError:
    traceback.print_exc()
print("error: bad input", file=sys.stderr)
sys.exit(2)
"""
# exit 2 from argparse, whose error line names the program first
ARGPARSE = """
import argparse
parser = argparse.ArgumentParser(prog="relturan tile-sample")
parser.add_argument("--n-samples", type=int)
parser.parse_args(["--n-samples", "x"])
"""
# a child's peak RSS starts at its parent's size at the fork, so the harness
# runs in a fresh process, not in this one
HARNESS = """
import json, os, sys
from tripwires import Row, run
failed = run([Row(**row) for row in json.loads(sys.argv[1])], fixtures="")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # every child reaped
    print(json.dumps(failed))
"""


def test_each_fault_fails_its_row(tmp_path):
    pid_file = tmp_path / "pid"
    sleep = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(60)"
    rows = [
        Row("good", ("-c", PRINT), 10, ceiling=32, pins={"edges": 3}),
        Row("argparse's error line", ("-c", ARGPARSE), 10, code=2),
        Row("wrong exit", ("-c", PRINT), 10, code=2),
        Row("no error line", ("-c", "import sys; print('bad input', file=sys.stderr); sys.exit(2)"), 10,
            code=2),
        Row("pin differs", ("-c", PRINT), 10, pins={"edges": 4}),
        Row("traceback", ("-c", TRACEBACK), 10, code=2),
        Row("over the ceiling", ("-c", "x = b'x' * (64 << 20)"), 10, ceiling=32),
        Row("past the timeout", ("-c", sleep), 1),
    ]
    start = time.monotonic()
    harness = subprocess.run([sys.executable, "-c", HARNESS, json.dumps([row._asdict() for row in rows])],
                             env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent)),
                             capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 30
    *lines, failed = harness.stdout.splitlines()
    assert json.loads(failed) == [row.name for row in rows[2:]]
    assert [line.split()[0] for line in lines] == ["ok"] * 2 + ["FAIL"] * 6
    for line, why in zip(lines[2:], ["exit 0, want 2", "does not end in an error: line", "edges is 3, want 4",
                                     "a traceback on stderr", "over 32 MiB", "no exit within 1 s"]):
        assert why in line
    # the harness reaped every child, and the sleeping one is gone
    pid = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
