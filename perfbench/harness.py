"""Process plumbing for the benchmark: timed unitpack commands, the
long-running watcher, and the tally of attempted and failed operations."""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

COMMAND_TIMEOUT_S = 120
CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Done:
    wall_s: float
    cpu_s: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Operations attempted and failed; a failed exit code and a failed
    output check both count as a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


class Program:
    """Runs unitpack from the checkout's source tree, untraced as
    ``python -m unitpack.cli`` (what the ``unitpack`` script runs) or
    traced through ``perfbench/traced.py``."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.spans_dir = work / "spans"
        self.spans_dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0", UNITPACK_NO_COLOR="1",
                        PYTHONUNBUFFERED="1")
        self.traced_runs: list[Path] = []

    def argv(self, args: list[str], trace_id: str | None = None,
             mode: str = "cli") -> list[str]:
        """The command line for `args`; with a trace id, the traced form
        in `mode` ``cli`` or ``watch`` (see traced.py)."""
        if trace_id is None:
            return [sys.executable, "-m", "unitpack.cli", *args]
        spans = self.spans_dir / f"{len(self.traced_runs):04d}.json"
        self.traced_runs.append(spans)
        return [sys.executable, str(self.root / "perfbench" / "traced.py"),
                str(spans), trace_id, mode, *args]

    def run(self, args: list[str], trace_id: str | None = None) -> Done:
        """Run one command to completion; CPU time is the child's own,
        taken from the children's resource usage around the wait."""
        argv = self.argv(args, trace_id)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=self.env, cwd=self.root,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Done(time.perf_counter() - start, 0.0, -1, "",
                        f"killed after {COMMAND_TIMEOUT_S} s")
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + \
            (after.ru_stime - before.ru_stime)
        return Done(wall, cpu, proc.returncode, proc.stdout, proc.stderr)

    def reference_s(self) -> float:
        """Seconds the fixed reference workload (reference.py) takes now."""
        out = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "reference.py")],
            check=True, capture_output=True, text=True, env=self.env,
            cwd=self.root, timeout=COMMAND_TIMEOUT_S).stdout
        return float(out)

    def import_s(self, repeats: int) -> float:
        """Median time of a fresh ``import unitpack.cli``, measured inside
        a new interpreter each time."""
        code = ("import time; t = time.perf_counter(); import unitpack.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(repeats):
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env=self.env, cwd=self.root,
                                 timeout=COMMAND_TIMEOUT_S).stdout
            times.append(float(out))
        return statistics.median(times)


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Watcher:
    """A running ``unitpack watch`` child.

    Its stdout, one JSON line per event, is drained by a reader thread:
    an undrained pipe would fill and block the watcher.  Each ``tagged``
    event is kept with the monotonic time it was read.
    """

    def __init__(self, argv: list[str], env: dict, cwd: Path, stderr: Path):
        self._stderr = open(stderr, "w", encoding="utf-8")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True,
                                     env=env, cwd=cwd)
        self.tagged: dict[str, tuple[float, dict]] = {}
        self.errors: list[str] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            now = time.monotonic()
            try:
                record = json.loads(line)
            except ValueError:
                record = {"event": "error", "message": line.strip()}
            with self._cond:
                if record.get("event") == "tagged":
                    self.tagged[record["source_path"]] = (now, record)
                elif record.get("event") == "error":
                    self.errors.append(record.get("message", line.strip()))
                self._cond.notify_all()

    def wait_tagged(self, paths, deadline: float) -> bool:
        """Block until every path has a tagged event or the monotonic
        deadline passes."""
        keys = [str(p) for p in paths]
        with self._cond:
            while not all(k in self.tagged for k in keys):
                left = deadline - time.monotonic()
                if left <= 0 or self.proc.poll() is not None:
                    return False
                self._cond.wait(min(left, 0.05))
        return True

    def seen(self, path) -> tuple[float, dict] | None:
        with self._cond:
            return self.tagged.get(str(path))

    def cpu_s(self) -> float:
        """User plus system CPU of the watcher, from /proc/<pid>/stat."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> int:
        """Interrupt the watcher, wait for it and its reader to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=20)
        self.proc.stdout.close()
        self._stderr.close()
        return code


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
