"""End-to-end smoke check for ``python -m repro serve``.

Boots the real server in a subprocess (fresh temp cache, a free
port, a 2-worker pool, so every cache miss runs in a pool worker),
then drives the serving layer's two contracts over actual HTTP:

1. **Byte identity** — the t01 quick job's ``format=json`` result is
   byte-identical to direct ``run_experiment("t01")`` output.
2. **Cache completeness** — resubmitting the identical job finishes
   with ``executed_cells == 0``: every cell came from the
   content-addressed result store.

Run it as ``make smoke-serve`` (CI does).  Exit 0 on success.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.registry import run_experiment  # noqa: E402

EXPERIMENT = "t01"
BOOT_TIMEOUT = 30.0
JOB_TIMEOUT = 120.0
PROCESSES = 2


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(base: str, path: str, payload: dict | None = None) -> bytes:
    req = urllib.request.Request(
        base + path,
        data=None if payload is None
        else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as response:
        return response.read()


def wait_for_boot(base: str) -> None:
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        try:
            body = json.loads(request(base, "/health"))
            if body.get("status") == "ok":
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise RuntimeError(f"server did not come up within {BOOT_TIMEOUT}s")


def run_job(base: str) -> dict:
    """Submit the experiment, poll to a terminal state, return the
    final snapshot."""
    snapshot = json.loads(request(
        base, "/jobs", {"experiment": EXPERIMENT, "quick": True}))
    job_id = snapshot["id"]
    deadline = time.monotonic() + JOB_TIMEOUT
    while time.monotonic() < deadline:
        snapshot = json.loads(request(base, f"/jobs/{job_id}"))
        if snapshot["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(0.2)
    if snapshot["state"] != "done":
        raise RuntimeError(f"job ended {snapshot['state']!r}: "
                           f"{snapshot.get('error')}")
    return snapshot


def main() -> int:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    direct = run_experiment(EXPERIMENT, quick=True).to_json() \
        .encode("utf-8")
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port",
             str(port), "--cache-dir", cache, "--processes",
             str(PROCESSES)],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     ["src", os.environ.get("PYTHONPATH", "")])
                 .rstrip(os.pathsep)})
        try:
            wait_for_boot(base)

            cold = run_job(base)
            served = request(base,
                             f"/jobs/{cold['id']}/result?format=json")
            if served != direct:
                print("FAIL: served result differs from direct "
                      "run_experiment output", file=sys.stderr)
                return 1
            executed = cold["progress"]["executed_cells"]
            print(f"[smoke-serve] cold run: {executed} cells "
                  f"executed, result byte-identical to direct run")

            warm = run_job(base)
            progress = warm["progress"]
            if progress["executed_cells"] != 0:
                print(f"FAIL: resubmission executed "
                      f"{progress['executed_cells']} cells (expected "
                      f"0 — all from cache)", file=sys.stderr)
                return 1
            served = request(base,
                             f"/jobs/{warm['id']}/result?format=json")
            if served != direct:
                print("FAIL: cached result differs from direct "
                      "run_experiment output", file=sys.stderr)
                return 1
            print(f"[smoke-serve] resubmission: 0 executed / "
                  f"{progress['cached_cells']} cached, byte-identical "
                  f"again — ok")
            return 0
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                server.kill()


if __name__ == "__main__":
    sys.exit(main())
