"""Helpers shared by benchmark/run.py and benchmark/compare.py (stdlib only)."""

import ctypes
import json
import signal
import statistics
import subprocess


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def die_with_parent():
    """Runs in the child before exec: the kernel sends it SIGTERM when the
    benchmark process dies, even by SIGKILL (Linux's parent-death signal,
    prctl option 1), so no daemon or helper outlives a killed run."""
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)


def spawn(args, **kwargs):
    return subprocess.Popen(args, preexec_fn=die_with_parent, **kwargs)


def stop(proc):
    """SIGTERM, then SIGKILL after 5 s; always reaps. Returns the status."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def call(args, timeout, **kwargs):
    """Runs a child to completion and returns (status, stdout, stderr). An
    interruption or timeout stops the child (SIGTERM first, so it can stop
    its own children) before the exception propagates."""
    proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        stop(proc)
        raise
    return proc.returncode, out, err
