"""Drive ``repro-campaign`` as a real process: spawn it, signal it, resume.

The in-process tests stand in for a signal by raising
:class:`~repro.errors.CampaignInterrupted`; these helpers send a real
one, so what a killed process leaves on disk (journal lines, store
leases) is what the resume has to cope with.  Every wait is bounded.
"""

import os
import shlex
import signal
import subprocess
import sys
import time

import repro

#: The source tree this test run imports ``repro`` from.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Upper bound on any one wait, in seconds.
TIMEOUT_S = 120.0


def spawn(argv):
    """Start ``python -m repro.cli ARGV`` with captured output.

    The process leads a session of its own, so it and the pool workers
    it forks can be signalled together as one process group.
    """
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        start_new_session=True,
    )


def signal_when(proc, ready, sig=signal.SIGTERM, group=False):
    """Send *sig* once ``ready()`` holds; ``(returncode, stdout, stderr)``.

    No signal is sent when the process exits first (or *ready* never
    holds within the bound): the caller's exit-code assertion then
    fails, so a sweep that ends before the signal can never pass.
    With *group*, the signal goes to the process and every pool worker
    it forked, as when a host dies: a SIGKILLed verb's orphaned workers
    would otherwise hold its output pipes open.
    """
    deadline = time.monotonic() + TIMEOUT_S
    while proc.poll() is None and time.monotonic() < deadline:
        if ready():
            if group:
                os.killpg(proc.pid, sig)
            else:
                proc.send_signal(sig)
            break
        time.sleep(0.005)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


def resume_argv(err):
    """The arguments of the resume hint an interrupted verb printed."""
    lines = err.splitlines()
    at = next(i for i, line in enumerate(lines) if line.endswith("resume with:"))
    argv = shlex.split(lines[at + 1])
    assert argv[0] == "repro-campaign"
    return argv[1:]
