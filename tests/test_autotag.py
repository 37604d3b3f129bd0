import json
import pathlib
import threading
import time

import pytest
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


def test_tag_never_overwrites(watch_setup):
    watch_dir, template_path, cfg = watch_setup
    source = watch_dir / "data.csv"
    source.write_text("x", encoding="utf-8")
    template = load_template(template_path)
    tag_file(source, template, cfg)
    with pytest.raises(AlreadyTagged):
        tag_file(source, template, cfg)


def test_meta_files_are_excluded(watch_setup):
    _, _, cfg = watch_setup
    assert not path_matches(cfg, cfg.watch_dir / "data.csv.meta.yaml")
    assert not path_matches(cfg, cfg.watch_dir / autotag.LOG_NAME)
    assert path_matches(cfg, cfg.watch_dir / "data.csv")


def test_exclude_set_cannot_drop_meta_suffix(watch_setup):
    watch_dir, template_path, _ = watch_setup
    cfg = WatchConfig(watch_dir=watch_dir, template_path=template_path,
                      include_globs=("*.meta.yaml",), exclude_globs=())
    assert not path_matches(cfg, watch_dir / "data.csv.meta.yaml")


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
        sources.append(source)
    stat_calls = []
    real_stat = pathlib.Path.stat

    def counting_stat(self, *args, **kwargs):
        stat_calls.append(self)
        return real_stat(self, *args, **kwargs)
    monkeypatch.setattr(pathlib.Path, "stat", counting_stat)
    sizes = autotag._scan(cfg)
    # glob's own check that the watch dir is a directory is not counted
    assert sorted(p for p in stat_calls if p != watch_dir) == sources
    assert sizes == {source: index for index, source in enumerate(sources)}


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
    with pytest.raises(WatchSetupError):
        watch(WatchConfig(watch_dir=tmp_path / "nope",
                          template_path=template))
    (tmp_path / "d").mkdir()
    with pytest.raises(WatchSetupError):
        watch(WatchConfig(watch_dir=tmp_path / "d",
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
