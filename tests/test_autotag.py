import fnmatch
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpack import autotag
from unitpack.autotag import (
    WatchConfig,
    backfill,
    load_template,
    path_matches,
    split_meta,
    tag_file,
    watch,
)
from unitpack.errors import AlreadyTagged, TemplateParseError, WatchSetupError
from unitpack.metadata import parse_yaml

TEMPLATE = """# lab template, edit per measurement series
user: Max Doe
current: 5 mA
figure description:
  fields:
    - name: t
      unit: s
"""


@pytest.fixture
def watch_setup(tmp_path):
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    template_path = tmp_path / "template.yaml"
    template_path.write_text(TEMPLATE, encoding="utf-8")
    cfg = WatchConfig(watch_dir=watch_dir, template_path=template_path,
                      quiescence_ms=80)
    return watch_dir, template_path, cfg


class WatcherThread:
    def __init__(self, cfg):
        self.cfg = cfg
        self.events = []
        self.stop = threading.Event()
        self.thread = threading.Thread(
            target=watch, args=(cfg, self.events.append, self.stop),
            daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()

    def wait_for(self, predicate, timeout=8.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate(self.events):
                return True
            time.sleep(0.02)
        return False


def _write(path, text="t,U\n0,1\n"):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _tag_count(events):
    return sum(1 for e in events if e.get("event") == "tagged")


# -------------------------------
# tag_file
# -------------------------------

def test_tag_writes_sidecar(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    source = watch_dir / "data.csv"
    source.write_text("t,U\n0,1\n", encoding="utf-8")
    template = load_template(template_path)
    event = tag_file(source, template, cfg)
    meta = watch_dir / "data.csv.meta.yaml"
    assert meta.is_file()
    assert event.meta_path == str(meta)
    assert event.source_path == str(source)
    body, block = split_meta(meta.read_text(encoding="utf-8"))
    assert body == template.text  # template verbatim, comments intact
    assert "# lab template" in body
    assert block["file"] == "data.csv"
    assert block["template_hash"] == template.version
    # the whole meta file still parses as YAML
    tree = parse_yaml(meta.read_text(encoding="utf-8"))
    assert tree["user"] == "Max Doe"
    assert tree["autotag"]["template_hash"] == template.version


# Names whose block each emitter must write alike: YAML would read the
# bare name as another type, an indicator starts it, it needs escapes, or
# it is long enough to fold (with spaces, or double-quoted).
SIDECAR_NAMES = [
    "data.csv", "run 1.csv", " ".join(["long name"] * 12) + ".csv",
    "true", "1.5", "2020-01-01", "~", "...", "-x.csv", "#a.csv",
    "a: b.csv", "'q.csv", "\u00e9.csv", "\U0001F600.csv", "nel\x85.csv",
    "tab\there.csv", "tab\t" + " ".join(["long name"] * 12),
    os.fsdecode(b"bad\xff.csv"),
]


def _expected_sidecar(template, stamp, name):
    block = {"autotag": {"tagged": stamp, "file": name,
                         "template_hash": template.version}}
    return template.text + yaml.safe_dump(
        block, sort_keys=False, default_flow_style=False, allow_unicode=True)


@pytest.mark.parametrize("name", SIDECAR_NAMES)
def test_sidecar_is_template_plus_safe_dump_of_block(watch_setup, name):
    watch_dir, template_path, cfg = watch_setup
    template = load_template(template_path)
    event = tag_file(watch_dir / name, template, cfg)
    assert pathlib.Path(event.meta_path).read_bytes() == \
        _expected_sidecar(template, event.timestamp, name).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(st.text(st.one_of(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="/\x00"),
                         st.sampled_from(["\udc80", "\udcff", "\x85", "\t",
                                          "\u2028", "\u2029"])),
               min_size=1, max_size=60))
def test_sidecar_bytes_for_any_name(name):
    if name in (".", "..") or \
            len(os.fsencode(name + autotag.META_SUFFIX)) > 200:
        return
    with tempfile.TemporaryDirectory() as tmp:
        template_path = pathlib.Path(tmp, "t.yaml")
        template_path.write_text(TEMPLATE, encoding="utf-8")
        cfg = WatchConfig(watch_dir=tmp, template_path=template_path)
        template = load_template(template_path)
        event = tag_file(pathlib.Path(tmp, name), template, cfg)
        assert pathlib.Path(event.meta_path).read_bytes() == \
            _expected_sidecar(template, event.timestamp, name).encode("utf-8")


def test_tag_never_overwrites(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    source = watch_dir / "data.csv"
    source.write_text("x", encoding="utf-8")
    template = load_template(template_path)
    tag_file(source, template, cfg)
    with pytest.raises(AlreadyTagged):
        tag_file(source, template, cfg)


class _TornHandle:
    """A file handle whose write stops half-way with a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        raise OSError(28, "No space left on device")


def test_failed_tag_leaves_no_sidecar_or_temp_file(watch_setup, monkeypatch):
    watch_dir, template_path, cfg = watch_setup
    source = watch_dir / "data.csv"
    source.write_text("x", encoding="utf-8")
    template = load_template(template_path)
    monkeypatch.setattr(autotag, "open", lambda *args, **kwargs: _TornHandle(
        open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError):
        tag_file(source, template, cfg)
    assert os.listdir(watch_dir) == ["data.csv"]
    monkeypatch.undo()
    tag_file(source, template, cfg)
    with pytest.raises(AlreadyTagged):
        tag_file(source, template, cfg)
    assert sorted(os.listdir(watch_dir)) == ["data.csv", "data.csv.meta.yaml"]


def test_meta_files_are_excluded(watch_setup):
    _, _, cfg = watch_setup
    assert not path_matches(cfg, cfg.watch_dir / "data.csv.meta.yaml")
    assert not path_matches(cfg, cfg.watch_dir / autotag.LOG_NAME)
    assert not path_matches(
        cfg, cfg.watch_dir / ".data.csv.meta.yaml.0123456789ab.tmp")
    assert path_matches(cfg, cfg.watch_dir / "data.csv")


def test_exclude_set_cannot_drop_meta_suffix(watch_setup):
    watch_dir, template_path, _ = watch_setup
    cfg = WatchConfig(watch_dir=watch_dir, template_path=template_path,
                      include_globs=("*.meta.yaml",), exclude_globs=())
    assert not path_matches(cfg, watch_dir / "data.csv.meta.yaml")


_GLOB_TEXT = st.text(alphabet="ab.*?[]!-", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_GLOB_TEXT, max_size=3), st.lists(_GLOB_TEXT, max_size=3),
       st.text(alphabet="ab.*?[]!-\n", min_size=1, max_size=8))
def test_path_matches_equals_fnmatchcase_per_glob(include, exclude, name):
    cfg = WatchConfig(watch_dir="w", template_path="t.yaml",
                      include_globs=tuple(include),
                      exclude_globs=tuple(exclude))
    expected = name != "t.yaml" and \
        any(fnmatch.fnmatchcase(name, g) for g in cfg.include_globs) and \
        not any(fnmatch.fnmatchcase(name, g) for g in cfg.effective_excludes)
    assert path_matches(cfg, f"w/{name}") is expected


def test_empty_include_globs_match_nothing(watch_setup):
    watch_dir, template_path, _ = watch_setup
    cfg = WatchConfig(watch_dir=watch_dir, template_path=template_path,
                      include_globs=())
    assert not any(path_matches(cfg, watch_dir / name)
                   for name in ("data.csv", ".hidden", "a b"))


def test_template_reserved_key_rejected(tmp_path):
    path = tmp_path / "t.yaml"
    path.write_text("autotag: 1\n", encoding="utf-8")
    with pytest.raises(TemplateParseError):
        load_template(path)


def test_template_must_parse(tmp_path):
    path = tmp_path / "t.yaml"
    path.write_text("user: [broken\n", encoding="utf-8")
    with pytest.raises(TemplateParseError):
        load_template(path)


@pytest.mark.parametrize("text, kept", [
    ("", ""), ("# only a comment", "# only a comment\n"),
    ("user: x", "user: x\n"), ("user: x\n", "user: x\n"),
])
def test_template_text_ends_with_one_newline(tmp_path, text, kept):
    path = tmp_path / "t.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_template(path).text == kept


@pytest.mark.parametrize("text", ["- a\n- b\n", "just text\n", "5\n"])
def test_template_must_be_a_map(tmp_path, text):
    path = tmp_path / "t.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TemplateParseError, match="must be a YAML map"):
        load_template(path)


def test_a_templates_bom_is_not_copied_into_its_sidecars(tmp_path):
    path = tmp_path / "t.yaml"
    path.write_text("\ufeffuser: Max Doe\n", encoding="utf-8")
    source = tmp_path / "data.csv"
    source.write_text("x", encoding="utf-8")
    tag_file(source, load_template(path), WatchConfig(tmp_path, path))
    sidecar = (tmp_path / "data.csv.meta.yaml").read_text(encoding="utf-8")
    assert sidecar.startswith("user: Max Doe\nautotag:\n")
    assert parse_yaml(sidecar)["autotag"]["template_hash"] == \
        hashlib.sha256(b"user: Max Doe\n").hexdigest()


def test_split_meta_without_a_block():
    assert split_meta("user: x\n") == ("user: x\n", None)
    assert split_meta("") == ("", None)


def test_negative_quiescence_is_a_setup_error(tmp_path):
    with pytest.raises(WatchSetupError, match="quiescence_ms must be >= 0"):
        WatchConfig(watch_dir=tmp_path, template_path=tmp_path / "t.yaml",
                    quiescence_ms=-1)


def test_undecodable_template_is_template_parse_error(tmp_path):
    path = tmp_path / "t.yaml"
    path.write_bytes(b"user: \xff\n")
    with pytest.raises(TemplateParseError):
        load_template(path)


# -------------------------------
# backfill
# -------------------------------

def test_backfill_tags_existing(watch_setup):
    watch_dir, _, cfg = watch_setup
    (watch_dir / "a.csv").write_text("x", encoding="utf-8")
    (watch_dir / "b.csv").write_text("y", encoding="utf-8")
    events = backfill(cfg)
    assert len(events) == 2
    assert (watch_dir / "a.csv.meta.yaml").is_file()
    assert (watch_dir / "b.csv.meta.yaml").is_file()
    # idempotent: second run tags nothing
    assert backfill(cfg) == []


def test_backfill_logs_tagged_records(watch_setup):
    watch_dir, _, cfg = watch_setup
    (watch_dir / "a.csv").write_text("x", encoding="utf-8")
    records = []
    events = backfill(cfg, event_sink=records.append)
    assert records == [event.to_record() for event in events]
    assert list(records[0]) == ["event", "source_path", "meta_path",
                                "template_version", "timestamp"]
    assert records[0]["event"] == "tagged"


@pytest.mark.parametrize("exc, code", [
    (AlreadyTagged("taken"), "ALREADY_TAGGED"),
    (PermissionError("denied"), "IO_ERROR"),
])
def test_backfill_logs_untaggable_file(watch_setup, monkeypatch, exc, code):
    watch_dir, _, cfg = watch_setup
    source = watch_dir / "a.csv"
    source.write_text("x", encoding="utf-8")

    def failing(path, template, cfg):
        raise exc
    monkeypatch.setattr(autotag, "tag_file", failing)
    records = []
    assert backfill(cfg, event_sink=records.append) == []
    assert len(records) == 1
    assert list(records[0]) == ["event", "code", "message", "source_path",
                                "timestamp"]
    assert records[0]["event"] == "error"
    assert records[0]["code"] == code
    assert records[0]["message"] == str(exc)
    assert records[0]["source_path"] == str(source)


# -------------------------------
# scan
# -------------------------------

def test_scan_stats_only_matching_names(watch_setup, monkeypatch):
    watch_dir, _, cfg = watch_setup
    sources = []
    for index in range(5):
        source = watch_dir / f"run{index}.csv"
        source.write_text("x" * index, encoding="utf-8")
        (watch_dir / f"run{index}.csv.meta.yaml").write_text(
            "user: x\n", encoding="utf-8")
        sources.append(str(source))
    stat_calls = []
    real_stat = os.stat

    def counting_stat(path, *args, **kwargs):
        stat_calls.append(os.fspath(path))
        return real_stat(path, *args, **kwargs)
    monkeypatch.setattr(os, "stat", counting_stat)
    paths = autotag._Scanner(cfg).scan(time.time())
    # names are judged first, and the listing gives each file's type; only
    # the directory is stat'ed, for its cache key
    assert stat_calls == [str(watch_dir)]
    assert sorted(paths) == sources


# -------------------------------
# poll step, driven by an injected clock
# -------------------------------

def _poller(cfg, now):
    records = []
    poller = autotag._Poller(cfg, autotag._EventLog(cfg.effective_log_path,
                                                    records.append),
                             autotag._Scanner(cfg), now)
    return poller, records


def test_idle_poll_lists_no_directory_and_stats_no_file(watch_setup,
                                                        monkeypatch):
    watch_dir, _, cfg = watch_setup
    dirs = [watch_dir] + [watch_dir / f"series-{d}" for d in range(3)]
    for directory in dirs[1:]:
        for i in range(4):
            _write(directory / f"scan-{i}.csv")
    past = time.time() - 10.0  # outside the racy window
    for directory in dirs:
        os.utime(directory, (past, past))
    now = time.time()
    poller, records = _poller(cfg, now)
    listed, stated = [], []
    real_scandir, real_stat = os.scandir, os.stat

    def scandir(path):
        listed.append(os.fspath(path))
        return real_scandir(path)

    def counting_stat(path, *args, **kwargs):
        stated.append(os.fspath(path))
        return real_stat(path, *args, **kwargs)
    monkeypatch.setattr(os, "scandir", scandir)
    monkeypatch.setattr(os, "stat", counting_stat)
    poller.poll(now + 1.0)
    assert listed == []
    assert sorted(p for p in stated if p.startswith(str(watch_dir))) == \
        sorted(map(str, dirs))
    assert records == []


def test_change_behind_a_reset_mtime_is_found_inside_racy_window(
        watch_setup):
    watch_dir, _, cfg = watch_setup
    series = watch_dir / "series"
    series.mkdir()
    now = time.time()  # the directory was just made: inside the window
    poller, records = _poller(cfg, now)
    before = os.stat(series)
    _write(series / "new.csv")
    # On a file system with coarse timestamps the mtime would not move.
    os.utime(series, ns=(before.st_atime_ns, before.st_mtime_ns))
    poller.poll(now + 0.5)
    poller.poll(now + 0.6)
    assert [r["source_path"] for r in records] == [str(series / "new.csv")]


def test_poll_waits_for_quiescence_and_records_latency(watch_setup):
    watch_dir, _, cfg = watch_setup  # quiescence 80 ms
    now = time.time()
    poller, records = _poller(cfg, now)
    source = _write(watch_dir / "a.csv", "1")
    poller.poll(now + 0.01)
    source.write_text("12", encoding="utf-8")  # still growing
    poller.poll(now + 0.05)
    poller.poll(now + 0.10)
    assert records == []
    poller.poll(now + 0.14)
    [record] = records
    assert list(record) == ["event", "source_path", "meta_path",
                            "template_version", "timestamp", "detected_at",
                            "latency_ms", "scan_ms"]
    assert record["source_path"] == str(source)
    assert record["detected_at"] == autotag._utc_iso(now + 0.01)
    assert record["latency_ms"] == pytest.approx(130.0)
    assert record["scan_ms"] >= 0.0


def test_poll_keeps_last_good_template_when_it_stops_decoding(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    now = time.time()
    poller, records = _poller(cfg, now)
    good = poller.template.version
    template_path.write_bytes(TEMPLATE.encode("utf-8") + b"note: \xff\n")
    source = _write(watch_dir / "a.csv")
    poller.poll(now + 0.01)
    poller.poll(now + 0.2)
    assert [(r["event"], r.get("code")) for r in records] == [
        ("error", "TEMPLATE_PARSE_ERROR"), ("tagged", None)]
    assert records[1]["source_path"] == str(source)
    assert records[1]["template_version"] == good


def test_poll_cancels_vanished_file_and_drops_vanished_dirs(watch_setup):
    watch_dir, _, cfg = watch_setup
    gone = watch_dir / "gone"
    gone.mkdir()
    now = time.time()
    poller, records = _poller(cfg, now)
    assert str(gone) in poller.scanner.listings
    source = _write(watch_dir / "a.csv")
    poller.poll(now + 0.01)
    source.unlink()
    gone.rmdir()
    poller.poll(now + 0.02)
    assert [(r["event"], r["source_path"]) for r in records] == [
        ("cancelled", str(source))]
    assert sorted(poller.scanner.listings) == [str(watch_dir)]


TEMPLATE_SPELLINGS = {
    "relative": lambda root: "incoming/template.yaml",
    "absolute": lambda root: str(root / "incoming" / "template.yaml"),
    "dotdot": lambda root: "incoming/../incoming/template.yaml",
}


@pytest.fixture(params=sorted(TEMPLATE_SPELLINGS))
def template_inside(request, tmp_path, monkeypatch):
    """A watch dir named relative to the working directory, holding its
    own template, which `--template` spells in several ways."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "incoming").mkdir()
    (tmp_path / "incoming" / "template.yaml").write_text(TEMPLATE,
                                                         encoding="utf-8")
    return WatchConfig(
        watch_dir=pathlib.Path("incoming"),
        template_path=pathlib.Path(
            TEMPLATE_SPELLINGS[request.param](tmp_path)),
        quiescence_ms=80)


def test_backfill_never_tags_template(template_inside):
    cfg = template_inside
    (cfg.watch_dir / "data.csv").write_text("x", encoding="utf-8")
    events = backfill(cfg)
    assert [pathlib.Path(e.source_path).name for e in events] == ["data.csv"]
    assert not (cfg.watch_dir / "template.yaml.meta.yaml").exists()


def test_watch_never_tags_recreated_template(template_inside):
    cfg = template_inside
    template = cfg.watch_dir / "template.yaml"
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        template.unlink()
        assert watcher.wait_for(
            lambda ev: any(e.get("code") == "TEMPLATE_PARSE_ERROR"
                           for e in ev))
        time.sleep(0.2)  # several polls see the template gone
        template.write_text(TEMPLATE, encoding="utf-8")
        assert watcher.wait_for(
            lambda ev: any(e["event"] == "template_reloaded" for e in ev))
        (cfg.watch_dir / "data.csv").write_text("x", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
        time.sleep(0.3)  # well past the quiescence interval
    assert [e["source_path"] for e in watcher.events
            if e["event"] == "tagged"] == [str(cfg.watch_dir / "data.csv")]
    assert not (cfg.watch_dir / "template.yaml.meta.yaml").exists()


def _logging_inside(watch_setup):
    watch_dir, template_path, _ = watch_setup
    return WatchConfig(watch_dir=watch_dir, template_path=template_path,
                       quiescence_ms=80, log_path=watch_dir / "my.log")


def test_backfill_never_tags_its_event_log(watch_setup):
    cfg = _logging_inside(watch_setup)
    source = _write(cfg.watch_dir / "a.csv")
    assert [e.source_path for e in backfill(cfg)] == [str(source)]
    assert backfill(cfg) == []
    assert not (cfg.watch_dir / "my.log.meta.yaml").exists()


def test_poll_never_tags_its_event_log(watch_setup):
    cfg = _logging_inside(watch_setup)
    now = time.time()
    poller, records = _poller(cfg, now)
    source = _write(cfg.watch_dir / "a.csv")
    for step in (0.01, 0.2, 0.4, 0.6):  # the log appears, then holds still
        poller.poll(now + step)
    assert [r["source_path"] for r in records] == [str(source)]
    assert not (cfg.watch_dir / "my.log.meta.yaml").exists()


def test_template_named_symlink_loop_is_skipped(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    (watch_dir / "template.yaml").symlink_to("template.yaml")
    (watch_dir / "data.csv").write_text("x", encoding="utf-8")
    events = backfill(cfg)
    assert [pathlib.Path(e.source_path).name for e in events] == ["data.csv"]
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        (watch_dir / "later.csv").write_text("x", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
    assert [e["source_path"] for e in watcher.events] == [
        str(watch_dir / "later.csv")]


# -------------------------------
# watch
# -------------------------------

def test_watch_tags_single_file(watch_setup):
    watch_dir, _, cfg = watch_setup
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        (watch_dir / "data.csv").write_text("t,U\n0,1\n", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
    assert (watch_dir / "data.csv.meta.yaml").is_file()
    # events also landed in the JSON-lines log
    log_lines = (watch_dir / autotag.LOG_NAME).read_text(
        encoding="utf-8").splitlines()
    records = [json.loads(line) for line in log_lines]
    assert any(r["event"] == "tagged" and
               r["source_path"].endswith("data.csv") for r in records)


def test_watch_ignores_preexisting_files(watch_setup):
    watch_dir, _, cfg = watch_setup
    (watch_dir / "old.csv").write_text("x", encoding="utf-8")
    with WatcherThread(cfg) as watcher:
        time.sleep(0.5)
        assert _tag_count(watcher.events) == 0
    assert not (watch_dir / "old.csv.meta.yaml").exists()


def test_watch_does_not_tag_meta_files(watch_setup):
    watch_dir, _, cfg = watch_setup
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        (watch_dir / "data.csv.meta.yaml").write_text("user: hand-made\n",
                                                      encoding="utf-8")
        time.sleep(0.5)
        assert _tag_count(watcher.events) == 0
    assert not (watch_dir / "data.csv.meta.yaml.meta.yaml").exists()


def test_watch_recreation_after_delete_reports_already_tagged(watch_setup):
    watch_dir, _, cfg = watch_setup
    source = watch_dir / "data.csv"
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        source.write_text("first", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
        source.unlink()
        time.sleep(0.3)
        source.write_text("second", encoding="utf-8")
        assert watcher.wait_for(
            lambda ev: any(e.get("code") == "ALREADY_TAGGED" for e in ev))
    # the original meta file is untouched
    body, _ = split_meta((watch_dir / "data.csv.meta.yaml").read_text(
        encoding="utf-8"))
    assert body == load_template(cfg.template_path).text


def test_watch_template_hot_reload(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        (watch_dir / "one.csv").write_text("1", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
        template_path.write_text(TEMPLATE.replace("5 mA", "7 mA"),
                                 encoding="utf-8")
        time.sleep(0.3)  # let the reload land
        (watch_dir / "two.csv").write_text("2", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 2)
    meta_one = parse_yaml((watch_dir / "one.csv.meta.yaml").read_text(
        encoding="utf-8"))
    meta_two = parse_yaml((watch_dir / "two.csv.meta.yaml").read_text(
        encoding="utf-8"))
    assert meta_one["current"] == "5 mA"
    assert meta_two["current"] == "7 mA"
    assert meta_one["autotag"]["template_hash"] != \
        meta_two["autotag"]["template_hash"]
    # the edit changed exactly the edited value
    assert meta_one["user"] == meta_two["user"]


def test_watch_keeps_running_on_template_breakage(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        template_path.write_text("user: [broken\n", encoding="utf-8")
        assert watcher.wait_for(
            lambda ev: any(e.get("code") == "TEMPLATE_PARSE_ERROR"
                           for e in ev))
        (watch_dir / "data.csv").write_text("x", encoding="utf-8")
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
    # tagged with the last good template
    body, _ = split_meta((watch_dir / "data.csv.meta.yaml").read_text(
        encoding="utf-8"))
    assert "5 mA" in body


def test_watch_setup_errors(tmp_path):
    template = tmp_path / "t.yaml"
    template.write_text("user: x\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    for run in (watch, backfill):
        with pytest.raises(WatchSetupError):
            run(WatchConfig(watch_dir=tmp_path / "nope",
                            template_path=template))
        with pytest.raises(WatchSetupError):
            run(WatchConfig(watch_dir=tmp_path / "d",
                            template_path=tmp_path / "missing.yaml"))


def test_quiescence_waits_for_stable_size(watch_setup):
    watch_dir, _, cfg = watch_setup
    source = watch_dir / "slow.csv"
    with WatcherThread(cfg) as watcher:
        time.sleep(0.2)
        with open(source, "w", encoding="utf-8") as handle:
            for _ in range(4):
                handle.write("chunk\n")
                handle.flush()
                time.sleep(0.05)  # keep the size moving < quiescence
        assert watcher.wait_for(lambda ev: _tag_count(ev) == 1)
    # tagged only after writes stopped: source fully written when tagged
    assert (watch_dir / "slow.csv.meta.yaml").is_file()


# -------------------------------
# safety property: no meta-of-meta names
# -------------------------------

@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-",
               min_size=1, max_size=24))
def test_meta_files_never_match(name):
    cfg = WatchConfig(watch_dir="w", template_path="t.yaml")
    meta_name = name + autotag.META_SUFFIX
    assert not path_matches(cfg, cfg.watch_dir / meta_name)
