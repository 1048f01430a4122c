"""Server CPU time counts work handed to child processes."""

import subprocess
import sys
import time

from common import pid_cpu_s

_CHILD = """
import time
t = time.process_time()
while time.process_time() - t < 0.5:
    pass
time.sleep(1.5)
"""

_PARENT = f"""
import subprocess, sys, time
subprocess.run([sys.executable, "-c", {_CHILD!r}], check=True)
time.sleep(1.0)
"""


def test_cpu_of_live_and_reaped_children_counts():
    parent = subprocess.Popen([sys.executable, "-c", _PARENT])
    try:
        time.sleep(1.2)  # the child has spun and now sleeps, still alive
        live = pid_cpu_s(parent.pid)
        time.sleep(1.2)  # the child has ended and been reaped
        reaped = pid_cpu_s(parent.pid)
    finally:
        parent.wait(timeout=10)
    assert live >= 0.45
    assert reaped >= live - 0.02
