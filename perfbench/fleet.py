"""Serving processes and the socket client that drives them.

:class:`Service` spawns ``repro serve`` or ``repro route`` as a child
process group, times its boot until the socket accepts, and stops it
with SIGTERM (the program's drain path), falling back to SIGKILL of the
whole group so no process outlives the benchmark.

:class:`Client` is one connection with one writer thread and one reader
thread.  ``closed_loop`` keeps a fixed window of jobs in flight;
``open_loop`` sends each job at its due time regardless of replies, and
times every job from when it was due, so a stall also charges the jobs
queued behind it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from host import SRC, cpu_snapshot, descendants_of, peak_rss_mb

#: longest unix socket path the kernel accepts, with margin
_SUN_PATH_MAX = 100
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0


def connect_path(path: str) -> str:
    """A connectable spelling of ``path`` (relative when the absolute
    form is longer than a unix socket address may be)."""
    if len(path) <= _SUN_PATH_MAX:
        return path
    return os.path.relpath(path)


def write_schema_dir(directory: str, schemas) -> str:
    """One ``NAME.dtd`` file per schema, in the program's DTD syntax."""
    os.makedirs(directory, exist_ok=True)
    for name, dtd in schemas.items():
        with open(os.path.join(directory, f"{name}.dtd"), "w") as handle:
            handle.write(dtd.describe() + "\n")
    return directory


def copy_tier(source: str, target: str) -> str:
    """A private copy of a seeded state-tier directory."""
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    return target


class Service:
    """One spawned ``repro serve`` / ``repro route`` process group."""

    def __init__(self, argv: list[str], socket_name: str, workdir: str) -> None:
        self.argv = argv
        self.workdir = workdir
        self.socket_path = os.path.join(workdir, socket_name)
        self.process: subprocess.Popen | None = None
        self.boot_s = 0.0

    def start(self) -> "Service":
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        env = dict(os.environ, PYTHONPATH=SRC)
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.argv],
            cwd=self.workdir, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        target = connect_path(self.socket_path)
        deadline = start + BOOT_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro {self.argv[0]} exited with {self.process.returncode} "
                    "before accepting"
                )
            if os.path.exists(self.socket_path):
                probe = socket.socket(socket.AF_UNIX)
                try:
                    probe.connect(target)
                    break
                except OSError:
                    pass
                finally:
                    probe.close()
            if time.perf_counter() > deadline:
                raise RuntimeError(f"repro {self.argv[0]} did not accept in time")
            time.sleep(0.002)
        self.boot_s = time.perf_counter() - start
        return self

    def pids(self) -> list[int]:
        if self.process is None or self.process.poll() is not None:
            return []
        return [self.process.pid, *descendants_of(self.process.pid)]

    def cpu(self) -> dict[int, float]:
        return cpu_snapshot(self.pids())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        # reap stragglers of the group (a worker left behind by a crash)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_argv(socket_name: str, schema_dir: str, tier: str, workers: int) -> list[str]:
    return [
        "serve", "--socket", socket_name, "--schema-dir", schema_dir,
        "--state-tier", tier, "--workers", str(workers),
    ]


def route_argv(
    socket_name: str, schema_dir: str, tier: str, shards: int,
    engine_workers: int, worker_dir: str, metrics_out: str,
) -> list[str]:
    return [
        "route", "--workers", str(shards), "--socket", socket_name,
        "--schema-dir", schema_dir, "--state-tier", tier,
        "--engine-workers", str(engine_workers), "--worker-dir", worker_dir,
        "--metrics-out", metrics_out,
    ]


class Client:
    """One client connection: a writer thread and a reader thread."""

    def __init__(self, socket_path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.connect(connect_path(socket_path))
        self.sock.settimeout(REPLY_TIMEOUT_S)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run(self, records, pace, expected: int):
        """Send ``records`` (``pace(i)`` blocks until job i may go and
        returns its due time), collect up to ``expected`` replies.
        Returns ``(due, sent, replies)`` where replies are ``(record, t)``;
        a reply that never arrives within the timeout is simply absent,
        and the caller counts the job as failed."""
        lines = [(json.dumps(record) + "\n").encode() for record in records]
        due = [0.0] * len(lines)
        sent = [0.0] * len(lines)
        replies: list[tuple[dict, float]] = []
        release = threading.Semaphore(0)

        def reader() -> None:
            stream = self.sock.makefile("rb")
            try:
                while len(replies) < expected:
                    line = stream.readline()
                    if not line:
                        break
                    replies.append((json.loads(line), time.perf_counter()))
                    release.release()
            except (OSError, ValueError):
                pass
            finally:
                release.release()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        sendall = self.sock.sendall
        perf_counter = time.perf_counter
        try:
            for index, line in enumerate(lines):
                due[index] = pace(index, release)
                sent[index] = perf_counter()
                sendall(line)
        finally:
            thread.join(REPLY_TIMEOUT_S)
        if thread.is_alive():
            # unblock the reader so it ends; its replies so far stand
            self.sock.shutdown(socket.SHUT_RDWR)
            thread.join(REPLY_TIMEOUT_S)
        return due, sent, list(replies)

    def closed_loop(self, records, window: int):
        """At most ``window`` jobs in flight; each due when sent."""
        credit = [window]

        def pace(index: int, release: threading.Semaphore) -> float:
            if credit[0] == 0:
                release.acquire()
            else:
                credit[0] -= 1
            return time.perf_counter()

        return self._run(records, pace, len(records))

    def open_loop(self, records, rate: float):
        """Job i is due at ``start + i / rate``."""
        start = time.perf_counter() + 0.01

        def pace(index: int, release) -> float:
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            return due

        return self._run(records, pace, len(records))


def measured_phase(service: Service, client: Client, mode: str, records, arg):
    """Run one client phase and account the service's CPU around it; its
    wall time runs from the first send to the last reply."""
    before = service.cpu()
    if mode == "closed":
        due, sent, replies = client.closed_loop(records, arg)
    else:
        due, sent, replies = client.open_loop(records, arg)
    after = service.cpu()
    elapsed = max((stamp for _, stamp in replies), default=sent[-1]) - sent[0]
    return {
        "due": due, "sent": sent, "replies": replies, "elapsed_s": elapsed,
        "cpu_before": before, "cpu_after": after,
    }
