"""Watch a directory for new files and write sidecar metadata from a
template, with hot template reload.

A created ``data.csv`` gets a sibling ``data.csv.meta.yaml`` holding the
template verbatim (key order and comments preserved) plus a reserved
``autotag`` block recording when it was tagged, the source basename,
and the content hash of the template used.  Existing meta files are
never overwritten.

The watcher polls the directory and considers a file complete once its
size has been stable for the quiescence interval; this needs no file
locks and survives instrument software that writes incrementally.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import yaml

from .errors import (
    AlreadyTagged,
    TemplateParseError,
    UnitpackError,
    WatchSetupError,
)
from .metadata import MetadataDoc, parse_yaml

META_SUFFIX = ".meta.yaml"
RESERVED_KEY = "autotag"
LOG_NAME = "autotag.log.jsonl"


@dataclass(frozen=True)
class WatchConfig:
    watch_dir: Path
    template_path: Path
    include_globs: tuple[str, ...] = ("*",)
    exclude_globs: tuple[str, ...] = ()
    quiescence_ms: int = 500
    recursive: bool = True
    log_path: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "watch_dir", Path(self.watch_dir))
        object.__setattr__(self, "template_path", Path(self.template_path))
        if self.quiescence_ms < 0:
            raise WatchSetupError("quiescence_ms must be >= 0")
        if self.log_path is not None:
            object.__setattr__(self, "log_path", Path(self.log_path))

    @property
    def effective_excludes(self) -> tuple[str, ...]:
        # The meta suffix can never be removed from the exclude set; the
        # event log and the template itself are never tagged either.
        extra = (f"*{META_SUFFIX}", LOG_NAME)
        return tuple(self.exclude_globs) + extra

    @property
    def effective_log_path(self) -> Path:
        return self.log_path if self.log_path is not None \
            else self.watch_dir / LOG_NAME


@dataclass(frozen=True)
class TagEvent:
    source_path: str
    meta_path: str
    template_version: str
    timestamp: str

    def to_record(self) -> dict:
        return {"event": "tagged", "source_path": self.source_path,
                "meta_path": self.meta_path,
                "template_version": self.template_version,
                "timestamp": self.timestamp}


@dataclass(frozen=True)
class TemplateSnapshot:
    """A validated template: verbatim text (normalized to end with a
    newline), its content hash, and the parsed document."""

    text: str
    version: str
    doc: MetadataDoc


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def load_template(path: str | Path) -> TemplateSnapshot:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TemplateParseError(f"cannot read template {path}: {exc}") from exc
    try:
        root = parse_yaml(text)
    except UnitpackError as exc:
        raise TemplateParseError(f"template {path}: {exc}") from exc
    if root is None:
        root = {}
    if not isinstance(root, dict):
        raise TemplateParseError(f"template {path} must be a YAML map")
    if RESERVED_KEY in root:
        raise TemplateParseError(
            f"template {path} uses the reserved top-level key "
            f"{RESERVED_KEY!r}")
    if text and not text.endswith("\n"):
        text += "\n"
    version = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return TemplateSnapshot(text=text, version=version,
                            doc=MetadataDoc(root=root))


def path_matches(cfg: WatchConfig, path: Path) -> bool:
    name = path.name
    if not any(fnmatch.fnmatchcase(name, g) for g in cfg.include_globs):
        return False
    if any(fnmatch.fnmatchcase(name, g) for g in cfg.effective_excludes):
        return False
    if path == cfg.template_path:
        return False
    return True


def meta_path_for(path: str | Path) -> Path:
    return Path(str(path) + META_SUFFIX)


def tag_file(path: str | Path, template: TemplateSnapshot,
             cfg: WatchConfig) -> TagEvent:
    """Write the sidecar meta file for `path`. Never overwrites."""
    path = Path(path)
    meta_path = meta_path_for(path)
    stamp = _utc_now()
    block = yaml.safe_dump(
        {RESERVED_KEY: {"tagged": stamp, "file": path.name,
                        "template_hash": template.version}},
        sort_keys=False, default_flow_style=False, allow_unicode=True)
    content = template.text + block
    try:
        with open(meta_path, "x", encoding="utf-8") as handle:
            handle.write(content)
    except FileExistsError:
        raise AlreadyTagged(f"meta file already exists: {meta_path}") from None
    return TagEvent(source_path=str(path), meta_path=str(meta_path),
                    template_version=template.version, timestamp=stamp)


def split_meta(meta_text: str) -> tuple[str, dict | None]:
    """Split a tagged meta file back into (template text, autotag map)."""
    import re
    matches = list(re.finditer(r"(?m)^autotag:$", meta_text))
    if not matches:
        return meta_text, None
    cut = matches[-1].start()
    block = parse_yaml(meta_text[cut:])
    return meta_text[:cut], block.get(RESERVED_KEY) if isinstance(block, dict) \
        else None


class _EventLog:
    """Append-only JSON-lines log; one TagEvent or error per line."""

    def __init__(self, path: Path, sink=None):
        self.path = path
        self.sink = sink

    def emit(self, record: dict) -> None:
        line = json.dumps(record, ensure_ascii=False)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        if self.sink is not None:
            self.sink(record)


def _error_record(exc: AlreadyTagged | OSError, path: Path) -> dict:
    """The log record of a file that could not be tagged."""
    return {"event": "error",
            "code": AlreadyTagged.code if isinstance(exc, AlreadyTagged)
            else "IO_ERROR",
            "message": str(exc), "source_path": str(path),
            "timestamp": _utc_now()}


def _scan(cfg: WatchConfig) -> set[Path]:
    pattern = "**/*" if cfg.recursive else "*"
    found = set()
    for path in cfg.watch_dir.glob(pattern):
        try:
            if path.is_file() and path_matches(cfg, path):
                found.add(path)
        except OSError:
            continue
    return found


def backfill(cfg: WatchConfig, event_sink=None) -> list[TagEvent]:
    """Tag every existing matching file that has no meta sibling yet.

    Migration companion to the live watcher; already-tagged files are
    skipped silently, so re-running produces zero new events.
    """
    if not cfg.watch_dir.is_dir():
        raise WatchSetupError(f"watch dir is not a directory: {cfg.watch_dir}")
    template = load_template(cfg.template_path)
    logger = _EventLog(cfg.effective_log_path, event_sink)
    events = []
    for path in sorted(_scan(cfg)):
        if meta_path_for(path).exists():
            continue
        try:
            event = tag_file(path, template, cfg)
        except (AlreadyTagged, OSError) as exc:
            logger.emit(_error_record(exc, path))
            continue
        events.append(event)
        logger.emit(event.to_record())
    return events


def _template_stat(path: Path):
    try:
        st = path.stat()
        return st.st_mtime_ns, st.st_size
    except OSError:
        return None


def watch(cfg: WatchConfig, event_sink=None,
          stop_event: threading.Event | None = None) -> None:
    """Run the tagging loop until `stop_event` is set (or Ctrl-C).

    Each file-creation is tagged with the template current at tag time
    once its size has been stable for the quiescence interval.  Template
    edits are picked up before the next tag; a template that stops
    parsing is logged and the last good version stays in effect.  All
    events and errors go to the JSON-lines log (and `event_sink`).
    Pre-existing files are left to `backfill`.
    """
    if not cfg.watch_dir.is_dir():
        raise WatchSetupError(f"watch dir is not a directory: {cfg.watch_dir}")
    if not cfg.template_path.is_file():
        raise WatchSetupError(f"template not found: {cfg.template_path}")
    template = load_template(cfg.template_path)  # fatal if unparseable

    if stop_event is None:
        stop_event = threading.Event()
    logger = _EventLog(cfg.effective_log_path, event_sink)
    poll_s = min(max(cfg.quiescence_ms / 4000.0, 0.02), 0.25)

    known = _scan(cfg)
    pending: dict[Path, tuple[int, float]] = {}
    template_stamp = _template_stat(cfg.template_path)

    try:
        while not stop_event.is_set():
            stamp = _template_stat(cfg.template_path)
            if stamp != template_stamp:
                template_stamp = stamp
                try:
                    template = load_template(cfg.template_path)
                    logger.emit({"event": "template_reloaded",
                                 "template_version": template.version,
                                 "timestamp": _utc_now()})
                except TemplateParseError as exc:
                    logger.emit({"event": "error",
                                 "code": TemplateParseError.code,
                                 "message": str(exc),
                                 "timestamp": _utc_now()})

            current = _scan(cfg)
            known &= current
            now = time.monotonic()
            for path in current - known - set(pending):
                try:
                    pending[path] = (path.stat().st_size, now)
                except OSError:
                    continue

            for path in sorted(pending):
                if path not in current:
                    del pending[path]
                    logger.emit({"event": "cancelled",
                                 "source_path": str(path),
                                 "timestamp": _utc_now()})
                    continue
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # re-examined next poll
                recorded_size, since = pending[path]
                if size != recorded_size:
                    pending[path] = (size, now)
                    continue
                if (now - since) * 1000.0 < cfg.quiescence_ms:
                    continue
                del pending[path]
                known.add(path)
                try:
                    event = tag_file(path, template, cfg)
                    logger.emit(event.to_record())
                except (AlreadyTagged, OSError) as exc:
                    logger.emit(_error_record(exc, path))
            stop_event.wait(poll_s)
    except KeyboardInterrupt:
        pass
