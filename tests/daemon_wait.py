"""Waiting for a freshly started daemon to accept connections.

A unix socket file exists after ``bind`` and before ``listen``, so "the
socket path exists" is not "the daemon serves": a connect in between is
refused.  :func:`wait_until_serving` polls with real connects instead.
"""

from __future__ import annotations

import subprocess
import time

import pytest

from repro.server.client import RemoteClient


def wait_until_serving(address: str, child, timeout: float = 30.0) -> None:
    """Return once a client can connect to ``address``.  ``child`` is the
    daemon's :class:`subprocess.Popen` or :class:`threading.Thread`; the
    wait fails at once if it has exited, and after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        if isinstance(child, subprocess.Popen):
            if child.poll() is not None:
                stderr = child.stderr.read() if child.stderr else ""
                pytest.fail(f"daemon exited with status {child.returncode} "
                            f"before serving: {stderr}")
        elif not child.is_alive():
            pytest.fail("daemon thread exited before serving")
        try:
            RemoteClient(address, timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                pytest.fail(f"nothing accepted a connection on {address} "
                            f"within {timeout:.0f}s")
            time.sleep(0.02)
