"""
Auto-tagging new files
======================

The watcher pairs every newly created data file with a sidecar
`<name>.meta.yaml` copied from the current template. Edit the template
between measurements and each file records the metadata that was in
effect when it appeared. This demo drives a short live session.
"""

import atexit
import shutil
import tempfile
import threading
import time
from pathlib import Path

from unitpack.autotag import WatchConfig, backfill, split_meta, watch

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)
incoming = workdir / "incoming"
incoming.mkdir()

template = workdir / "template.yaml"
template.write_text("""\
# series template; tweak values between runs
user: Max Doe
current: 5 mA
""", encoding="utf-8")

# A pre-existing file: the live watcher leaves it alone, backfill tags it.
(incoming / "old-run.csv").write_text("t,U\n0,1\n", encoding="utf-8")

cfg = WatchConfig(watch_dir=incoming, template_path=template,
                  quiescence_ms=100)

events = backfill(cfg)
print("backfilled:", [Path(e.meta_path).name for e in events])

stop = threading.Event()
watcher = threading.Thread(target=watch, args=(cfg, None, stop), daemon=True)
watcher.start()
time.sleep(0.3)

(incoming / "run1.csv").write_text("t,U\n0,1.01\n", encoding="utf-8")
time.sleep(0.6)

template.write_text(template.read_text().replace("5 mA", "7 mA"),
                    encoding="utf-8")
time.sleep(0.3)

(incoming / "run2.csv").write_text("t,U\n0,1.02\n", encoding="utf-8")
time.sleep(0.6)

stop.set()
watcher.join()

for meta in sorted(incoming.glob("*.meta.yaml")):
    body, block = split_meta(meta.read_text(encoding="utf-8"))
    current = [line for line in body.splitlines() if "current" in line]
    print(f"{meta.name}: {current[0].strip()}  "
          f"(template {block['template_hash'][:8]})")

print("event log:", (incoming / "autotag.log.jsonl").name,
      "with", len((incoming / "autotag.log.jsonl")
                  .read_text(encoding="utf-8").splitlines()), "lines")
