"""The ``serve`` child process and the closed-loop HTTP load generator.

The child is the real ``repro-sato serve`` command.  It runs with
unbuffered output sent to files (a pipe nobody drains can block it, and
its banner is a plain ``print``), binds port 0, and is stopped with
SIGINT, which takes its drain path; it is killed if the drain overruns.
"""

from __future__ import annotations

import json
import math
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

#: Deadline for the child to print its port and answer ``/healthz``.
START_TIMEOUT_S = 30.0
#: Grace period for the SIGINT drain before the child is killed.
STOP_TIMEOUT_S = 15.0
#: Per-request socket timeout; a slower reply counts as failed.  These
#: bounds keep a run that meets a hung server well inside three minutes.
REQUEST_TIMEOUT_S = 10.0

_BANNER = re.compile(rb"on http://[^:\s]+:(\d+)")


class ServeError(RuntimeError):
    """The serve child failed to start, answer or stop."""


class ServerProcess:
    """One ``serve`` child, from launch to a verified stop."""

    def __init__(self, argv: Sequence[str], env: dict, cwd: Path, logs: Path, tag: str):
        self.stdout_path = logs / f"{tag}.out"
        self.stderr_path = logs / f"{tag}.err"
        self._stdout = open(self.stdout_path, "wb")
        self._stderr = open(self.stderr_path, "wb")
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=self._stdout, stderr=self._stderr,
            stdin=subprocess.DEVNULL,
        )
        self.port: int | None = None

    def stderr_tail(self, lines: int = 20) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def _fail(self, message: str) -> ServeError:
        return ServeError(f"{message}\n--- serve stderr (last lines) ---\n{self.stderr_tail()}")

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> float:
        """Wait for the port banner and a 200 from ``/healthz``; returns set-up seconds."""
        deadline = self.launched + timeout
        while self.port is None:
            if self.process.poll() is not None:
                raise self._fail(f"serve exited with {self.process.returncode} before binding")
            match = _BANNER.search(self.stdout_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            if time.monotonic() > deadline:
                raise self._fail("serve printed no port before the deadline")
            time.sleep(0.005)
        while True:
            try:
                status, _, _ = request(self.port, "GET", "/healthz", timeout=2.0)
                if status == 200:
                    return time.monotonic() - self.launched
            except OSError:
                pass
            if self.process.poll() is not None:
                raise self._fail(f"serve exited with {self.process.returncode} before /healthz")
            if time.monotonic() > deadline:
                raise self._fail("/healthz did not answer 200 before the deadline")
            time.sleep(0.005)

    def metrics(self) -> dict:
        status, body, _ = request(self.port, "GET", "/metrics")
        if status != 200:
            raise self._fail(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> int:
        """SIGINT (the drain path), then kill after :data:`STOP_TIMEOUT_S`."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    return self.process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(STOP_TIMEOUT_S)
                    raise self._fail("serve did not drain within the grace period")
            return self.process.returncode
        finally:
            self._stdout.close()
            self._stderr.close()

    def kill(self) -> None:
        """Kill the child if it still runs and close its files; a no-op after :meth:`stop`."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(STOP_TIMEOUT_S)
        self._stdout.close()
        self._stderr.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB (Linux)."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE).group(1)) / 1024


def request(port: int, method: str, path: str, body: bytes | None = None,
            timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes, tuple[float, float]]:
    """One HTTP/1.1 exchange on a fresh connection.

    Returns ``(status, body, (sent, received))``: the clock just before
    the request's first byte goes out on the open connection, and when the
    server closed it (it closes every one), before any parsing.  Socket
    set-up and the client's parsing stay out of that interval, and a plain
    socket keeps the client's share of the interpreter small.
    """
    body = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sent = time.monotonic()
        sock.sendall(head + body)
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
        received = time.monotonic()
    header, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    lines = header.split(b"\r\n")
    status = int(lines[0].split()[1])
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length" and int(value) != len(payload):
            raise OSError(f"reply body has {len(payload)} bytes, header says {int(value)}")
    return status, payload, (sent, received)


@dataclass
class Sample:
    """One operation of the closed loop."""

    index: int
    start: float
    end: float
    ok: bool
    detail: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3 if self.ok else math.inf


@dataclass
class LoopResult:
    """Every operation the loop attempted, in completion order."""

    samples: list[Sample] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    exhausted: bool = False

    @property
    def seconds(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def failed(self) -> list[Sample]:
        return [sample for sample in self.samples if not sample.ok]


def closed_loop(
    operation: Callable[[int], tuple[bool, str, tuple[float, float] | None]],
    n_inputs: int,
    seconds: float,
    clients: int = 2,
) -> LoopResult:
    """Run ``operation(i)`` for i = 0, 1, ... from ``clients`` threads.

    Each client sends its next operation only after its previous one
    completed (a closed loop).  No operation starts after ``seconds``;
    the ones in flight finish and count.  ``operation`` returns
    ``(ok, detail, interval)``: ``interval`` is when the program had the
    operation, ``(start, end)`` on ``time.monotonic``, or None for the
    whole call.  An exception counts as a failure, never as a crash.
    Input ``i`` is used once; running out ends the loop early.
    """
    result = LoopResult()
    lock = threading.Lock()
    next_index = [0]
    started = time.monotonic()
    deadline = started + seconds

    def client() -> None:
        while True:
            with lock:
                index = next_index[0]
                if time.monotonic() >= deadline:
                    return
                if index >= n_inputs:
                    result.exhausted = True
                    return
                next_index[0] += 1
            begin = time.monotonic()
            try:
                ok, detail, interval = operation(index)
            except Exception as error:  # a failed operation, counted below
                ok, detail, interval = False, f"{type(error).__name__}: {error}", None
            start, end = interval if interval is not None else (begin, time.monotonic())
            sample = Sample(index, start, end, ok, detail)
            with lock:
                result.samples.append(sample)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((sample.end for sample in result.samples), default=started)
    result.window = (started, end)
    return result


def python_argv(*args: str) -> list[str]:
    """Run a module or script with this interpreter, unbuffered."""
    return [sys.executable, "-u", *args]
