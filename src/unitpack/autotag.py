"""Watch a directory for new files and write sidecar metadata from a
template, with hot template reload.

A created ``data.csv`` gets a sibling ``data.csv.meta.yaml`` holding the
template verbatim (key order and comments preserved) plus a reserved
``autotag`` block recording when it was tagged, the source basename,
and the content hash of the template used.  Existing meta files are
never overwritten.  A tag costs one temp create, one hard link, one
unlink and one append to the event log: the block is plain text
formatted directly unless YAML must quote or escape a value.

The watcher polls the directory and considers a file complete once its
size has been stable for the quiescence interval; this needs no file
locks and survives instrument software that writes incrementally.  A
poll stats each directory and re-lists only the ones that changed; an
idle poll does no work for each file.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import stat
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import yaml

from .errors import (
    AlreadyTagged,
    TemplateParseError,
    UnitpackError,
    WatchSetupError,
    error_code,
)
from .metadata import (
    META_SUFFIX,
    _STAGED_GLOB,
    _list_dir,
    _read_document,
    _staged,
    _walk,
    parse_yaml,
)

RESERVED_KEY = "autotag"
LOG_NAME = "autotag.log.jsonl"
# A directory listing is trusted only once the directory's mtime is this
# much older than the moment the listing started: a change made after
# that moment then moves the mtime even where timestamps are 2 s coarse.
RACY_WINDOW_NS = 2_000_000_000
# Text that YAML writes as a plain scalar, unless it would read it back
# as another type (`_plain` asks the dumper's resolver).
_PLAIN_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*\Z")
_RESOLVER = yaml.SafeDumper(None)


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

    @cached_property
    def effective_excludes(self) -> tuple[str, ...]:
        # The meta suffix can never be removed from the exclude set; the
        # temp names unitpack writes files under, the event log and the
        # template itself are never tagged either.
        extra = (f"*{META_SUFFIX}", _STAGED_GLOB, LOG_NAME)
        return tuple(self.exclude_globs) + extra

    @cached_property
    def _include_re(self) -> re.Pattern:
        return _globs_re(self.include_globs)

    @cached_property
    def _exclude_re(self) -> re.Pattern:
        return _globs_re(self.effective_excludes)

    @property
    def effective_log_path(self) -> Path:
        return self.log_path if self.log_path is not None \
            else self.watch_dir / LOG_NAME

    @cached_property
    def _own_names(self) -> frozenset[str]:
        """The basenames of the template and the event log."""
        return frozenset((self.template_path.name,
                          self.effective_log_path.name))


@dataclass(frozen=True)
class TagEvent:
    source_path: str
    meta_path: str
    template_version: str
    timestamp: str

    def to_record(self) -> dict:
        return {"event": "tagged", **vars(self)}


@dataclass(frozen=True)
class TemplateSnapshot:
    """A validated template: its text (without a leading BOM, normalized
    to end with a newline) and its content hash."""

    text: str
    version: str


def _globs_re(globs: tuple[str, ...]) -> re.Pattern:
    """One pattern whose `match` holds where `fnmatch.fnmatchcase` holds
    for any of `globs`; with no glob, one that matches nothing."""
    if not globs:
        return re.compile(r"(?!)")
    return re.compile("|".join(map(fnmatch.translate, globs)))


def _utc_iso(seconds: float) -> str:
    return datetime.fromtimestamp(seconds, timezone.utc).isoformat(
        timespec="milliseconds")


def _utc_now() -> str:
    return _utc_iso(time.time())


def load_template(path: str | Path) -> TemplateSnapshot:
    """The template at `path`, a leading BOM dropped; one that cannot be
    read or is not a YAML map is a `TemplateParseError`."""
    try:
        text, root = _read_document(
            path, lambda text: (text, parse_yaml(text)))
    except (OSError, UnitpackError) as exc:
        raise TemplateParseError(str(exc)) from exc
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
    return TemplateSnapshot(text=text, version=version)


def path_matches(cfg: WatchConfig, path: str | Path) -> bool:
    """Whether the watcher tags `path`, judged by name alone except for
    the names of the template and the event log: those two files are
    compared by resolved path, and a path that cannot be resolved (a
    symlink loop) is neither of them."""
    name = os.path.basename(path)
    if not cfg._include_re.match(name) or cfg._exclude_re.match(name):
        return False
    if name not in cfg._own_names:
        return True
    try:
        return Path(path).resolve() not in (cfg.template_path.resolve(),
                                            cfg.effective_log_path.resolve())
    except (OSError, RuntimeError):
        return True


def meta_path_for(path: str | os.PathLike) -> str:
    return os.fspath(path) + META_SUFFIX


def _plain(text: str) -> bool:
    """Whether YAML writes `text` as a plain scalar that reads back as
    the same text."""
    return _PLAIN_RE.match(text) is not None and _RESOLVER.resolve(
        yaml.ScalarNode, text, (True, False)) == "tag:yaml.org,2002:str"


def _autotag_block(stamp: str, name: str, version: str) -> str:
    """The `autotag` block as `yaml.safe_dump` writes it, for `stamp`
    from `_utc_iso`, which YAML reads as a timestamp and so quotes."""
    if _plain(name) and _plain(version):
        return (f"{RESERVED_KEY}:\n  tagged: '{stamp}'\n  file: {name}\n"
                f"  template_hash: {version}\n")
    return yaml.safe_dump(
        {RESERVED_KEY: {"tagged": stamp, "file": name,
                        "template_hash": version}},
        sort_keys=False, default_flow_style=False, allow_unicode=True)


def tag_file(path: str | os.PathLike, template: TemplateSnapshot,
             cfg: WatchConfig) -> TagEvent:
    """Write the sidecar meta file for `path`. Never overwrites.

    `path` is taken as spelled, not normalised: the event's
    `source_path` is `path` itself and its `meta_path` is `path` plus
    `META_SUFFIX`, so `./data.csv` stays `./data.csv`.

    The sidecar is written under a hidden temp name and hard-linked into
    place, so a reader never sees it half-written; the temp name is
    removed whether or not that succeeds."""
    path = os.fspath(path)
    meta_path = meta_path_for(path)
    stamp = _utc_now()
    content = template.text + _autotag_block(
        stamp, os.path.basename(path), template.version)
    with _staged(meta_path) as temp:
        try:
            with open(temp, "x", encoding="utf-8") as handle:
                handle.write(content)
            os.link(temp, meta_path)
        except FileExistsError:
            raise AlreadyTagged(
                f"meta file already exists: {meta_path}") from None
    return TagEvent(source_path=path, meta_path=meta_path,
                    template_version=template.version, timestamp=stamp)


def split_meta(meta_text: str) -> tuple[str, dict | None]:
    """Split a tagged meta file back into (template text, autotag map)."""
    matches = list(re.finditer(r"(?m)^autotag:$", meta_text))
    if not matches:
        return meta_text, None
    cut = matches[-1].start()
    block = parse_yaml(meta_text[cut:])
    return meta_text[:cut], block.get(RESERVED_KEY) if isinstance(block, dict) \
        else None


def json_line(record: dict) -> str:
    """`record` as one line of JSON that encodes to UTF-8.  Text is
    written unescaped, unless a value holds a lone surrogate (an
    undecodable byte of a file name): then the whole line is ASCII, and
    `json.loads` turns its escapes back into the same string."""
    line = json.dumps(record, ensure_ascii=False)
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(record)
    return line


class _EventLog:
    """Append-only JSON-lines log; one TagEvent or error per line."""

    def __init__(self, path: Path, sink=None):
        self.path = path
        self.sink = sink

    def emit(self, record: dict) -> None:
        line = json_line(record)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        if self.sink is not None:
            self.sink(record)


def _path_order(path: str) -> list[str]:
    """The sort key that puts paths as `_walk` and `_list_dir` spell them
    in `Path` order, part by part."""
    return path.split(os.sep)


def _tag_and_log(path: str, template: TemplateSnapshot, cfg: WatchConfig,
                 logger: _EventLog, **fields) -> TagEvent | None:
    """Tag `path` and log the outcome, with `fields` added to the tagged
    record; None if it could not be tagged."""
    try:
        event = tag_file(path, template, cfg)
    except (AlreadyTagged, OSError) as exc:
        logger.emit({"event": "error", "code": error_code(exc),
                     "message": str(exc), "source_path": str(path),
                     "timestamp": _utc_now()})
        return None
    logger.emit({**event.to_record(), **fields})
    return event


def _check_setup(cfg: WatchConfig) -> None:
    """The watch dir and the template exist, or `WatchSetupError`."""
    if not cfg.watch_dir.is_dir():
        raise WatchSetupError(f"watch dir is not a directory: {cfg.watch_dir}")
    if not cfg.template_path.is_file():
        raise WatchSetupError(f"template not found: {cfg.template_path}")


def backfill(cfg: WatchConfig, event_sink=None) -> list[TagEvent]:
    """Tag every existing matching file that has no meta sibling yet.

    Migration companion to the live watcher; already-tagged files are
    skipped silently, so re-running produces zero new events.
    """
    _check_setup(cfg)
    template = load_template(cfg.template_path)
    logger = _EventLog(cfg.effective_log_path, event_sink)
    events = []
    found = _walk(str(cfg.watch_dir), lambda path: path_matches(cfg, path),
                  cfg.recursive)
    for path in sorted(found, key=_path_order):
        if os.path.exists(meta_path_for(path)):
            continue
        event = _tag_and_log(path, template, cfg, logger)
        if event is not None:
            events.append(event)
    return events


def _template_stat(path: Path):
    try:
        st = path.stat()
        return st.st_mtime_ns, st.st_size
    except OSError:
        return None


class _Poller:
    """The watcher's state between polls; `poll` is one pass of its loop.

    The tree is held once, as each directory's listing kept under the
    directory's (st_ino, st_mtime_ns) and reused while that key holds and
    lies outside the racy window (git's racy-clean rule), so a poll lists
    only the directories that changed.  Files present when it starts are
    left alone.  A file that appears later is new until it is tagged, and
    only new files get a `stat` in a poll: a new file is pending until its
    size has held for the quiescence interval, then tagged.
    """

    def __init__(self, cfg: WatchConfig, logger: _EventLog, now: float):
        self.cfg = cfg
        self.logger = logger
        self.template = load_template(cfg.template_path)  # fatal if bad
        self.template_stamp = _template_stat(cfg.template_path)
        # directory -> (key, time listed in ns, files, subdirectories)
        self.listings: dict[str, tuple] = {}
        self.new: set[str] = set()
        self._scan(now)
        self.new.clear()
        # path -> (size, time that size was first seen, time first seen)
        self.pending: dict[str, tuple[int, float, float]] = {}

    def _scan(self, now: float) -> None:
        """Bring `listings` up to `now`, a `time.time()` reading taken
        before the scan, re-listing only the directories that changed;
        files that appeared join `new` and files that went leave it.
        Names are judged before any file is stat'ed."""
        now_ns = int(now * 1e9)
        old, self.listings = self.listings, {}
        stack = [str(self.cfg.watch_dir)]
        while stack:
            directory = stack.pop()
            try:
                st = os.stat(directory)
            except OSError:
                continue  # its listing stays in `old`, so its files go
            listing = old.pop(directory, (None, 0, frozenset(), []))
            key = (st.st_ino, st.st_mtime_ns)
            if listing[0] != key or \
                    listing[1] - st.st_mtime_ns < RACY_WINDOW_NS:
                files, dirs = _list_dir(
                    directory, lambda path: path_matches(self.cfg, path))
                files = frozenset(files)
                self.new -= listing[2] - files
                self.new |= files - listing[2]
                listing = (key, now_ns, files, dirs)
            self.listings[directory] = listing
            if self.cfg.recursive:
                stack += listing[3]
        for listing in old.values():  # directories that vanished
            self.new -= listing[2]

    def _reload_template(self) -> None:
        stamp = _template_stat(self.cfg.template_path)
        if stamp == self.template_stamp:
            return
        self.template_stamp = stamp
        try:
            self.template = load_template(self.cfg.template_path)
            self.logger.emit({"event": "template_reloaded",
                              "template_version": self.template.version,
                              "timestamp": _utc_now()})
        except TemplateParseError as exc:
            self.logger.emit({"event": "error",
                              "code": TemplateParseError.code,
                              "message": str(exc), "timestamp": _utc_now()})

    def poll(self, now: float) -> None:
        """One pass at `now`, a `time.time()` reading: reload an edited
        template, cancel pending files that vanished, tag quiescent ones.
        Events of one pass come in `Path` order."""
        self._reload_template()
        started = time.perf_counter()
        self._scan(now)
        scan_ms = round((time.perf_counter() - started) * 1000.0, 3)
        sizes = {}
        for path in self.new:
            try:
                st = os.stat(path)
            except OSError:
                continue
            if stat.S_ISREG(st.st_mode):
                sizes[path] = st.st_size
        for path in sorted(self.pending.keys() - sizes.keys(),
                           key=_path_order):
            del self.pending[path]
            self.logger.emit({"event": "cancelled", "source_path": path,
                              "timestamp": _utc_now()})
        for path in sorted(sizes, key=_path_order):
            size, since, seen = self.pending.get(path, (None, now, now))
            if size != sizes[path] or now < since:  # or the clock stepped back
                since = now
            self.pending[path] = (sizes[path], since, seen)
            if (now - since) * 1000.0 < self.cfg.quiescence_ms:
                continue
            del self.pending[path]
            self.new.discard(path)
            _tag_and_log(path, self.template, self.cfg, self.logger,
                         detected_at=_utc_iso(seen),
                         latency_ms=round((now - seen) * 1000.0, 3),
                         scan_ms=scan_ms)


def watch(cfg: WatchConfig, event_sink=None,
          stop_event: threading.Event | None = None) -> None:
    """Run the tagging loop until `stop_event` is set, which it checks
    between polls, so a stop never cuts a tag short.

    Each file-creation is tagged with the template current at tag time
    once its size has been stable for the quiescence interval.  Template
    edits are picked up before the next tag; a template that stops
    parsing is logged and the last good version stays in effect.  All
    events and errors go to the JSON-lines log (and `event_sink`).
    Pre-existing files are left to `backfill`.
    """
    _check_setup(cfg)
    poller = _Poller(cfg, _EventLog(cfg.effective_log_path, event_sink),
                     time.time())
    if stop_event is None:
        stop_event = threading.Event()
    poll_s = min(max(cfg.quiescence_ms / 4000.0, 0.02), 0.25)
    while not stop_event.is_set():
        poller.poll(time.time())
        stop_event.wait(poll_s)
