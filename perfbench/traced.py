"""Run one unitpack command, or the watcher, with every public function
wrapped in spans; write the spans to a file when the process ends.

    python3 perfbench/traced.py SPANS RUN_ID cli ARGS...
    python3 perfbench/traced.py SPANS RUN_ID watch DIR TEMPLATE LOG

`cli` runs `unitpack ARGS...` and exits with its code.  `watch` runs
`autotag.watch` with the CLI's defaults and an event sink that prints one
JSON line per event, until SIGINT or SIGTERM; its stop event counts every
`wait()`, one per poll.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path

import spans


class CountingEvent(threading.Event):
    """A stop event that records each wait, so polls can be counted."""

    def __init__(self, rec: spans.Recorder):
        super().__init__()
        self._rec = rec

    def wait(self, timeout=None):
        start = time.monotonic_ns()
        try:
            return super().wait(timeout)
        finally:
            self._rec.waits.append((start, time.monotonic_ns()))


def _watch(rec: spans.Recorder, watch_dir: str, template: str, log: str):
    from unitpack import autotag

    stop = CountingEvent(rec)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    cfg = autotag.WatchConfig(watch_dir=Path(watch_dir),
                              template_path=Path(template),
                              log_path=Path(log))
    autotag.watch(cfg, event_sink=lambda record: print(
        json.dumps(record, ensure_ascii=False), flush=True), stop_event=stop)
    return 0


def main(argv: list[str]) -> int:
    spans_path, run_id, mode, rest = argv[0], argv[1], argv[2], argv[3:]
    import unitpack.cli  # noqa: F401 - imports every module before wrapping

    rec = spans.Recorder(run_id)
    spans.install(rec)
    try:
        if mode == "watch":
            return _watch(rec, *rest)
        return unitpack.cli.main(rest)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
