"""The system under test, driven only through its public CLI and protocol.

Every server runs in its own process tree, started with ``python -m repro``
from the checkout's ``src/``; the benchmark process only speaks the NDJSON
protocol to it over loopback TCP.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

_READY = re.compile(r"(?:serving on|cluster router on) ([\d.]+):(\d+)")
BOOT_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The system under test misbehaved (failed to start, answered wrong)."""


def sut_env(root: Path, trace_dir: Path | None) -> dict:
    """Environment of every process of the system under test."""
    paths = [str(root / "src")]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        paths.insert(0, str(Path(__file__).resolve().parent / "hook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def build_oracle(edge_list: Path, out: Path, landmarks: int, env: dict) -> None:
    """``python -m repro build`` (DynamicHCL.build with the CSR builder,
    then save_oracle)."""
    subprocess.run(
        [sys.executable, "-m", "repro", "build", str(edge_list), "-o", str(out),
         "--csr", "--landmarks", str(landmarks), "--seed", "2021"],
        env=env, check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=600,
    )


class Server:
    """One ``repro serve`` / ``repro serve-cluster`` process tree."""

    def __init__(self, args: list[str], env: dict, log_dir: Path) -> None:
        log_dir.mkdir(parents=True, exist_ok=True)
        self._out_path = log_dir / "server.out"
        self._out = open(self._out_path, "w")
        self._err = open(log_dir / "server.err", "w")
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env, stdout=self._out, stderr=self._err,
            stdin=subprocess.DEVNULL,
        )
        self.address = self._wait_ready()
        self.boot_s = perf_counter() - start

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            match = _READY.search(self._out_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited during boot (code {self.proc.returncode})"
                )
            time.sleep(0.002)
        raise BenchError("server did not report its address in time")

    def processes(self) -> list[int]:
        """The server's pid and every descendant's."""
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        found, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            todo.extend(children.get(pid, ()))
        return found

    def peak_rss_mb(self) -> dict[int, float]:
        """VmHWM in MB of every process of the tree."""
        out = {}
        for pid in self.processes():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            out[pid] = int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return out

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait for the whole tree to end."""
        tree = self.processes() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        for pid in tree[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)
        self._out.close()
        self._err.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Connection:
    """One NDJSON client connection; :meth:`call` returns the response and
    its round-trip time in seconds."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def call(self, request: dict) -> tuple[dict, float]:
        line = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        start = perf_counter()
        self._sock.sendall(line)
        raw = self._reader.readline()
        elapsed = perf_counter() - start
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw), elapsed

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class Probes:
    """One host-speed probe process (``probe.py``) pinned to each CPU."""

    def __init__(self, cpus: list[int], out_dir: Path) -> None:
        script = Path(__file__).resolve().parent / "probe.py"
        self.paths = {cpu: out_dir / f"probe-{cpu}.txt" for cpu in cpus}
        self.procs = [
            subprocess.Popen([sys.executable, str(script), str(cpu), str(path)],
                             stdin=subprocess.DEVNULL)
            for cpu, path in self.paths.items()
        ]

    def stop(self) -> dict[int, list[tuple[float, float]]]:
        """Stop the probes; ``cpu -> [(clock, burst seconds)]``."""
        for proc in self.procs:
            proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            proc.wait(timeout=30)
        samples = {}
        for cpu, path in self.paths.items():
            lines = path.read_text().split("\n") if path.exists() else []
            samples[cpu] = [
                (float(a), float(b)) for a, b in
                (line.split() for line in lines if line.count(" ") == 1)
            ]
        return samples


def pin(pids: list[int], cpus: set[int]) -> None:
    """Restrict every thread of ``pids`` to ``cpus``."""
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                continue
