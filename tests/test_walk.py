"""How the recursive scans treat the tree they walk.

`from_directory`, `scan_metadata_directory`, `backfill`, the watcher and
`write_report`'s pruning each walk a directory tree.  They agree on what
they see: symlinked directories are not descended, symlinked files are
read through, hidden names are walked, and a subdirectory that cannot be
read is skipped.  The collection load reports its paths in full-path
string order and the watcher tags in `Path` order, so the texts of their
messages and events do not depend on the file system's listing order.
"""

import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from unitpack import autotag, save_entry
from unitpack.collection import from_directory
from unitpack.errors import CollectionLoadError, DuplicateIdentifier
from unitpack.metadata import scan_metadata_directory
from unitpack.report import ReportConfig, write_report

from conftest import material_entry

META = "user: Max Doe\n"


def _watch_cfg(tmp_path, watch_dir):
    template = tmp_path / "template.yaml"
    template.write_text(META, encoding="utf-8")
    return autotag.WatchConfig(watch_dir=watch_dir, template_path=template,
                               quiescence_ms=80)


def _backfilled(tmp_path, watch_dir):
    events = autotag.backfill(_watch_cfg(tmp_path, watch_dir))
    return [event.source_path for event in events]


def _tagged(records):
    return [r["source_path"] for r in records if r["event"] == "tagged"]


def _write(path: Path, text: str = "t\n1\n") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def block_scandir(monkeypatch):
    """Make `os.scandir` of the given directories fail as an unreadable
    directory does (running as root, a chmod would not)."""
    blocked = set()
    real = os.scandir

    def scandir(path="."):
        if os.fspath(path) in blocked:
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real(path)
    monkeypatch.setattr(os, "scandir", scandir)
    return lambda path: blocked.add(str(path))


# -------------------------------
# symlinks
# -------------------------------

def test_collection_reads_linked_files_not_linked_dirs(tmp_path):
    coll = tmp_path / "coll"
    save_entry(material_entry("a", "Pt"), coll)
    save_entry(material_entry("b", "Au"), tmp_path / "elsewhere")
    save_entry(material_entry("c", "Pt"), tmp_path / "other")
    (coll / "linked_dir").symlink_to(tmp_path / "elsewhere")
    (coll / "c.json").symlink_to(tmp_path / "other" / "c.json")
    (coll / "c.csv").symlink_to(tmp_path / "other" / "c.csv")
    assert from_directory(coll).identifiers == ("a", "c")


def test_metadata_scan_reads_linked_files_not_linked_dirs(tmp_path):
    root = tmp_path / "meta"
    _write(root / "x.csv.meta.yaml", META)
    _write(tmp_path / "elsewhere" / "y.csv.meta.yaml", META)
    _write(tmp_path / "outside" / "z.csv.meta.yaml", META)
    (root / "linked_dir").symlink_to(tmp_path / "elsewhere")
    (root / "z.csv.meta.yaml").symlink_to(
        tmp_path / "outside" / "z.csv.meta.yaml")
    result = scan_metadata_directory(root)
    assert [p for p, _ in result.documents] == [root / "x.csv.meta.yaml",
                                                root / "z.csv.meta.yaml"]


def test_backfill_tags_linked_files_not_linked_dirs(tmp_path):
    watch_dir = tmp_path / "in"
    _write(watch_dir / "data.csv")
    _write(tmp_path / "elsewhere" / "inner.csv")
    _write(tmp_path / "outside" / "file.csv")
    (watch_dir / "linked_dir").symlink_to(tmp_path / "elsewhere")
    (watch_dir / "linked.csv").symlink_to(tmp_path / "outside" / "file.csv")
    assert _backfilled(tmp_path, watch_dir) == [
        str(watch_dir / "data.csv"), str(watch_dir / "linked.csv")]
    assert not (tmp_path / "elsewhere" / "inner.csv.meta.yaml").exists()


def test_report_prune_does_not_follow_linked_dirs(material_collection,
                                                  tmp_path):
    keep = _write(tmp_path / "elsewhere" / "stale.md")
    out = tmp_path / "site"
    (out / "entries").mkdir(parents=True)
    (out / "entries" / "linked_dir").symlink_to(tmp_path / "elsewhere")
    write_report(material_collection, ReportConfig(out_dir=out, plot_x="t",
                                                   plot_y="U"))
    assert keep.is_file()
    assert (out / "entries" / "linked_dir").is_symlink()


# -------------------------------
# hidden names
# -------------------------------

def test_hidden_names_are_walked(tmp_path):
    coll = tmp_path / "coll"
    save_entry(material_entry("a", "Pt"), coll / ".hidden")
    _write(tmp_path / "meta" / ".hidden" / ".x.csv.meta.yaml", META)
    watch_dir = tmp_path / "in"
    _write(watch_dir / ".hidden" / ".data.csv")
    assert from_directory(coll).identifiers == ("a",)
    assert [p.name for p, _ in scan_metadata_directory(
        tmp_path / "meta").documents] == [".x.csv.meta.yaml"]
    assert _backfilled(tmp_path, watch_dir) == [
        str(watch_dir / ".hidden" / ".data.csv")]


# -------------------------------
# unreadable subdirectories
# -------------------------------

def test_unreadable_subdirectory_is_skipped(tmp_path, block_scandir):
    coll = tmp_path / "coll"
    save_entry(material_entry("a", "Pt"), coll)
    save_entry(material_entry("x", "Pt"), coll / "blocked")
    meta = tmp_path / "meta"
    _write(meta / "a.csv.meta.yaml", META)
    _write(meta / "blocked" / "x.csv.meta.yaml", META)
    watch_dir = tmp_path / "in"
    _write(watch_dir / "a.csv")
    _write(watch_dir / "blocked" / "x.csv")
    for root in (coll, meta, watch_dir):
        block_scandir(root / "blocked")
    assert from_directory(coll).identifiers == ("a",)
    assert [p.name for p, _ in scan_metadata_directory(meta).documents] == [
        "a.csv.meta.yaml"]
    assert _backfilled(tmp_path, watch_dir) == [
        str(watch_dir / "a.csv")]


# -------------------------------
# order
# -------------------------------

def _descriptor(coll: Path, json_name: str, identifier: str = "one") -> None:
    """A package whose descriptor is `json_name` below `coll`."""
    staging = coll.parent / "staging"
    save_entry(material_entry(identifier, "Pt"), staging)
    target = coll / json_name
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(staging / f"{identifier}.json", target)
    shutil.move(staging / f"{identifier}.csv", target.parent)
    staging.rmdir()


def test_duplicate_identifier_names_paths_in_string_order(tmp_path):
    coll = tmp_path / "coll"
    _descriptor(coll, "a/b.json")
    _descriptor(coll, "a.json")
    with pytest.raises(DuplicateIdentifier) as excinfo:
        from_directory(coll)
    assert str(excinfo.value) == (
        f"identifier 'one' produced by both {coll / 'a.json'} and "
        f"{coll / 'a' / 'b.json'}")


def test_load_errors_listed_in_string_order(tmp_path):
    coll = tmp_path / "coll"
    for name in ("a/b.json", "a-b.json", "a.json"):
        _write(coll / name, json.dumps({"resources": []}))
    with pytest.raises(CollectionLoadError) as excinfo:
        from_directory(coll)
    assert [path for path, _ in excinfo.value.failures] == [
        str(coll / "a-b.json"), str(coll / "a.json"),
        str(coll / "a" / "b.json")]


def test_backfill_tags_in_path_order(tmp_path):
    watch_dir = tmp_path / "in"
    for name in ("a.csv", "a-b.csv", "a/b.csv"):
        _write(watch_dir / name)
    assert _backfilled(tmp_path, watch_dir) == [
        str(watch_dir / "a" / "b.csv"), str(watch_dir / "a-b.csv"),
        str(watch_dir / "a.csv")]


def test_watch_tags_one_poll_in_path_order(tmp_path):
    watch_dir = tmp_path / "in"
    watch_dir.mkdir()
    staging = tmp_path / "staging"
    for name in ("a.csv", "a-b.csv", "a/b.csv"):
        _write(staging / name)
    events = []
    stop = threading.Event()
    thread = threading.Thread(target=autotag.watch, daemon=True, args=(
        _watch_cfg(tmp_path, watch_dir), events.append, stop))
    thread.start()
    try:
        time.sleep(0.2)
        staging.rename(watch_dir / "batch")  # all three appear at once
        deadline = time.monotonic() + 8.0
        while len(_tagged(events)) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    batch = watch_dir / "batch"
    assert _tagged(events) == [str(batch / "a" / "b.csv"),
                               str(batch / "a-b.csv"), str(batch / "a.csv")]
