"""A run stops and waits for every process it started, orphans included."""

import subprocess
import sys

from conftest import BENCH

# Starts a child that leaves a grandchild behind (as a server leaves its
# resource tracker), then reaps; prints what is still alive afterwards.
_RUN = f"""
import os, subprocess, sys, time
sys.path.insert(0, {str(BENCH)!r})
from common import _live_children, adopt_orphans, reap_children

adopt_orphans()
subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
time.sleep(0.2)
orphans = _live_children()
t = time.monotonic()
reap_children(grace_s=0.2)
print(len(orphans), _live_children(), round(time.monotonic() - t, 1))
"""


def test_reap_children_waits_for_adopted_orphans():
    out = subprocess.run([sys.executable, "-c", _RUN], capture_output=True, text=True,
                         timeout=30, check=True).stdout.split()
    adopted, left, took = int(out[0]), out[1], float(out[2])
    assert adopted == 1  # the orphaned sleep was re-parented to the run
    assert left == "[]"
    assert took < 5.0  # SIGTERM after the grace, not the sleep's 60 s
