import contextlib
import http.server
import json
import shutil
import tempfile
import threading
import zipfile

import pytest

from unitpack import collection
from unitpack.collection import (
    Clause,
    Collection,
    Profile,
    describe,
    from_archive,
    from_directory,
    get,
    load_profile,
    parse_clause,
)
from unitpack.datapackage import Entry, save_entry
from unitpack.errors import (
    BadArchive,
    CollectionLoadError,
    DirectoryNotFound,
    DuplicateIdentifier,
    EntryNotFound,
    FetchError,
    MetadataParseError,
    PredicateParseError,
    UnitpackError,
)
from unitpack.metadata import MetadataDoc

from conftest import forbid_csv_body, material_entry


def _save_all(entries, outdir):
    for entry in entries:
        save_entry(entry, outdir)


# -------------------------------
# from_directory
# -------------------------------

def test_from_directory_demo(packed_dir):
    db = from_directory(packed_dir)
    assert db.identifiers == ("data",)
    assert repr(db) == "[Entry('data')]"


def test_from_directory_empty(tmp_path):
    assert len(from_directory(tmp_path)) == 0


def test_from_directory_missing(tmp_path):
    with pytest.raises(DirectoryNotFound):
        from_directory(tmp_path / "nope")


def test_duplicate_identifier_across_subdirs(packed_dir):
    shutil.copytree(packed_dir, packed_dir / "copy")
    with pytest.raises(DuplicateIdentifier) as excinfo:
        from_directory(packed_dir)
    assert "data" in str(excinfo.value)


def test_load_errors_fatal_by_default(packed_dir):
    (packed_dir / "stray.json").write_text("{}", encoding="utf-8")
    with pytest.raises(CollectionLoadError):
        from_directory(packed_dir)
    db = from_directory(packed_dir, skip_errors=True)
    assert db.identifiers == ("data",)


def test_roundtrip_through_filesystem(material_collection, tmp_path):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    assert from_directory(outdir) == material_collection


# -------------------------------
# from_archive
# -------------------------------

def _zip_dir(directory, zip_path):
    with zipfile.ZipFile(zip_path, "w") as archive:
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                archive.write(path, path.relative_to(directory))


def test_from_archive_local_zip(material_collection, tmp_path):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    zip_path = tmp_path / "db.zip"
    _zip_dir(outdir, zip_path)
    assert from_archive(zip_path) == from_directory(outdir)


def test_from_archive_tables_outlive_extraction(material_collection,
                                                tmp_path):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    zip_path = tmp_path / "db.zip"
    _zip_dir(outdir, zip_path)
    db = from_archive(zip_path)
    assert [entry.table.rows for entry in db] == \
        [entry.table.rows for entry in material_collection]


def test_from_archive_ragged_body_is_a_load_error(material_collection,
                                                  tmp_path, caplog):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    with open(outdir / "cv-au-1.csv", "a", encoding="utf-8") as handle:
        handle.write("1,2,3\n")
    zip_path = tmp_path / "db.zip"
    _zip_dir(outdir, zip_path)
    with pytest.raises(CollectionLoadError) as info:
        from_archive(zip_path)
    assert [path.rsplit("/", 1)[-1] for path, _ in info.value.failures] == \
        ["cv-au-1.json"]
    assert "has 3 cells, expected 2" in info.value.failures[0][1]
    with caplog.at_level("WARNING", logger=collection.log.name):
        db = from_archive(zip_path, skip_errors=True)
    assert db.identifiers == ("cv-pt-1", "cv-pt-2")
    assert "cv-au-1.json" in caplog.text
    assert [entry.table.rows for entry in db] == \
        [entry.table.rows for entry in material_collection
         if entry.identifier != "cv-au-1"]


@pytest.mark.parametrize("member", ["../x.json", "/x.json"])
def test_from_archive_rejects_escaping_member(tmp_path, monkeypatch,
                                              member):
    zip_path = tmp_path / "evil.zip"
    with zipfile.ZipFile(zip_path, "w") as archive:
        archive.writestr(member, "{}")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    extracted = []
    monkeypatch.setattr(zipfile.ZipFile, "extractall",
                        lambda self, *a, **k: extracted.append(a))
    with pytest.raises(BadArchive, match="escapes"):
        from_archive(zip_path)
    assert extracted == []
    assert sorted(tmp_path.rglob("*")) == [zip_path, work]


def test_from_archive_empty_zip(tmp_path):
    zip_path = tmp_path / "empty.zip"
    with zipfile.ZipFile(zip_path, "w"):
        pass
    assert len(from_archive(zip_path)) == 0


def test_from_archive_not_a_zip(tmp_path):
    path = tmp_path / "nope.zip"
    path.write_text("definitely not a zip", encoding="utf-8")
    with pytest.raises(BadArchive):
        from_archive(path)


def test_from_archive_unreachable_url():
    with pytest.raises(FetchError):
        from_archive("http://127.0.0.1:1/never.zip")


def test_from_archive_missing_file(tmp_path):
    with pytest.raises(FetchError):
        from_archive(tmp_path / "missing.zip")


@contextlib.contextmanager
def _serving(directory):
    """The base URL of a loopback HTTP server for `directory`."""
    class QuietHandler(http.server.SimpleHTTPRequestHandler):
        def log_message(self, *args):
            pass

    handler = lambda *a, **kw: QuietHandler(
        *a, directory=str(directory), **kw)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_from_archive_over_http(material_collection, tmp_path):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    _zip_dir(outdir, tmp_path / "db.zip")
    with _serving(tmp_path) as base:
        assert from_archive(f"{base}/db.zip") == from_directory(outdir)


def test_from_archive_download_is_bounded(material_collection, tmp_path,
                                          monkeypatch):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    _zip_dir(outdir, tmp_path / "db.zip")
    size = (tmp_path / "db.zip").stat().st_size
    monkeypatch.setattr(collection, "MAX_DOWNLOAD_BYTES", size - 1,
                        raising=False)
    with _serving(tmp_path) as base:
        with pytest.raises(FetchError) as excinfo:
            from_archive(f"{base}/db.zip")
        assert excinfo.value.code == "FETCH_ERROR"
        monkeypatch.setattr(collection, "MAX_DOWNLOAD_BYTES", size)
        assert from_archive(f"{base}/db.zip") == from_directory(outdir)


@pytest.mark.parametrize("limit", ["MAX_ARCHIVE_MEMBERS",
                                   "MAX_EXTRACTED_BYTES"])
def test_from_archive_unpacking_is_bounded(material_collection, tmp_path,
                                           monkeypatch, limit):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    zip_path = tmp_path / "db.zip"
    _zip_dir(outdir, zip_path)
    with zipfile.ZipFile(zip_path) as archive:
        members = archive.infolist()
    actual = {"MAX_ARCHIVE_MEMBERS": len(members),
              "MAX_EXTRACTED_BYTES": sum(m.file_size for m in members)}[limit]
    monkeypatch.setattr(collection, limit, actual - 1, raising=False)
    with pytest.raises(BadArchive) as excinfo:
        from_archive(zip_path)
    assert excinfo.value.code == "BAD_ARCHIVE"
    monkeypatch.setattr(collection, limit, actual)
    assert from_archive(zip_path) == from_directory(outdir)


# -------------------------------
# get
# -------------------------------

def test_get_by_identifier(packed_dir):
    db = from_directory(packed_dir)
    assert get(db, "data").identifier == "data"
    assert db["data"].identifier == "data"


def test_get_lowercases_key(packed_dir):
    db = from_directory(packed_dir)
    assert get(db, "DATA") is get(db, "data")


def test_get_missing_lists_available(packed_dir):
    db = from_directory(packed_dir)
    with pytest.raises(EntryNotFound) as excinfo:
        get(db, "missing")
    assert "data" in str(excinfo.value)


def test_get_missing_message(material_collection):
    with pytest.raises(EntryNotFound) as excinfo:
        get(material_collection, "Nope")
    assert str(excinfo.value) == \
        "no entry 'Nope' (available: cv-au-1, cv-pt-1, cv-pt-2)"
    with pytest.raises(EntryNotFound) as excinfo:
        get(Collection(entries=()), "nope")
    assert str(excinfo.value) == "no entry 'nope' (available: none)"
    many = Collection(entries=tuple(material_entry(f"e{i:02d}", "Pt")
                                    for i in range(21)))
    with pytest.raises(EntryNotFound) as excinfo:
        get(many, "nope")
    assert str(excinfo.value) == "no entry 'nope'"


def test_metadata_queries_read_no_csv_body(material_collection, tmp_path,
                                           monkeypatch):
    outdir = tmp_path / "db"
    _save_all(material_collection, outdir)
    forbid_csv_body(monkeypatch)
    db = from_directory(outdir)
    kept = collection.filter(db, parse_clause('user == "Max Doe"'))
    assert kept.identifiers == ("cv-au-1", "cv-pt-1")
    assert get(db, "CV-PT-2").metadata.root["user"] == "Ada Lovelace"
    assert describe(db)["materials"] == ["Au", "Pt"]


# -------------------------------
# filter
# -------------------------------

def test_filter_matches_oracle(material_collection):
    clause = parse_clause('user == "Max Doe"')
    got = collection.filter(material_collection, clause)
    # brute-force oracle over the raw metadata trees
    expected = {e.identifier for e in material_collection
                if e.metadata.root.get("user") == "Max Doe"}
    assert set(got.identifiers) == expected
    assert len(got) == 2


def test_filter_tautology_and_contradiction(material_collection):
    everything = collection.filter(
        material_collection, parse_clause("user != nobody"))
    assert everything.identifiers == material_collection.identifiers
    nothing = collection.filter(
        material_collection, parse_clause('user == nobody'))
    assert len(nothing) == 0


def test_filter_missing_path_fails_clause(material_collection):
    got = collection.filter(material_collection,
                            parse_clause("no.such.path == 1"))
    assert len(got) == 0


def test_filter_subset_and_idempotent(material_collection):
    clause = parse_clause(
        "system.electrodes.working_electrode.material == Pt")
    once = collection.filter(material_collection, clause)
    twice = collection.filter(once, clause)
    assert set(once.identifiers) <= set(material_collection.identifiers)
    assert once == twice


def test_filter_numeric_comparison():
    entries = (material_entry("a", "Pt"), material_entry("b", "Au"))
    db = Collection(entries=entries)
    # metadata has no numeric key; add clauses over material string order
    lt = collection.filter(db, parse_clause(
        "system.electrodes.working_electrode.material < Pt"))
    assert lt.identifiers == ("b",)  # "Au" < "Pt" lexicographically


def test_filter_conjunction(material_collection):
    clauses = [parse_clause('user == "Max Doe"'),
               parse_clause(
                   "system.electrodes.working_electrode.material == Pt")]
    got = collection.filter(material_collection, clauses)
    assert got.identifiers == ("cv-pt-1",)


def test_filter_contains(material_collection):
    got = collection.filter(material_collection,
                            parse_clause('user contains Max'))
    assert got.identifiers == ("cv-au-1", "cv-pt-1")


def test_parse_clause_errors():
    with pytest.raises(PredicateParseError):
        parse_clause("just-two tokens")
    with pytest.raises(PredicateParseError):
        parse_clause("path ~= value")
    clause = parse_clause('a.b >= 2.5')
    assert clause == Clause(path="a.b", op=">=", value=2.5)


# Each literal and the value it stands for, type included: a token is a
# number exactly where a CSV cell with the same text is one.
@pytest.mark.parametrize("token, expected", [
    ("5", 5), ("-3", -3), ("+4", 4), ("007", 7), ("2.5", 2.5),
    ("-0.25", -0.25), ("1e3", 1000.0), ("-1.5E-2", -0.015), (".5", 0.5),
    ("٢", 2), ("١.٥", 1.5), ("true", True), ("false", False),
    ("null", None), ('""', ""), ('"Max Doe"', "Max Doe"), ("Pt", "Pt"),
    ("True", "True"), ("NULL", "NULL"), ('"5 mA"', "5 mA"),
])
def test_parse_clause_literals(token, expected):
    value = parse_clause(f"k == {token}").value
    assert (type(value), value) == (type(expected), expected)


# Python's `int` and `float` read these; a CSV cell holding the same text
# is text, and so is the literal.
@pytest.mark.parametrize("token", [
    "1_000", "1.", "-2.", "inf", "-Infinity", "nan", "1e400", '" 5"',
    '"5 "', pytest.param("9" * 4301, id="4301-digits"),
])
def test_literals_that_are_text_in_a_cell_are_text(token):
    text = token.strip('"')
    assert parse_clause(f"k == {token}").value == text


# `canonical_scalar` writes an infinite or NaN float as the text literal
# reads, so `==` matches them.
@pytest.mark.parametrize("path, op, token, kept", [
    ("hot", "==", "inf", True), ("cold", "==", "-inf", True),
    ("odd", "==", "nan", True), ("hot", "!=", "inf", False),
    ("hot", "==", "1e400", False),
])
def test_text_literal_matches_infinite_and_nan_metadata(path, op, token,
                                                        kept):
    entry = material_entry("x", "Pt")
    db = Collection(entries=(Entry(
        identifier="x", fields=entry.fields, table=entry.table,
        metadata=MetadataDoc(root={"hot": float("inf"),
                                   "cold": float("-inf"),
                                   "odd": float("nan")})),))
    clause = parse_clause(f"{path} {op} {token}")
    assert bool(collection.filter(db, clause)) is kept


# Every clause compares by one rule: two numbers by value, any other two
# scalars by their canonical renderings.  So `contains` on a string looks
# for `true`, `false` and `null` as JSON spells them, not as Python does.
@pytest.mark.parametrize("text, kept", [
    ("l contains true", True),
    ("n == 1.0", True),
    ("s contains true", True),
    ("t contains true", False),
    ("u contains null", True),
    ("f contains false", True),
    ("t contains True", True),
])
def test_every_clause_compares_by_one_rule(text, kept):
    entry = material_entry("x", "Pt")
    db = Collection(entries=(Entry(
        identifier="x", fields=entry.fields, table=entry.table,
        metadata=MetadataDoc(root={
            "l": [1, True], "n": 1, "s": "it is true", "t": "True story",
            "u": "null here", "f": "a false start"})),))
    assert bool(collection.filter(db, parse_clause(text))) is kept


@pytest.mark.parametrize("value", [[1], {"a": 1}, ()])
def test_a_clause_value_must_be_a_scalar(value):
    with pytest.raises(PredicateParseError) as excinfo:
        Clause("user", "==", value)
    assert excinfo.value.code == "PREDICATE_PARSE_ERROR"


def test_direct_collection_rejects_repeated_identifier():
    with pytest.raises(DuplicateIdentifier) as excinfo:
        Collection(entries=(material_entry("a", "Pt"),
                            material_entry("a", "Au")))
    assert excinfo.value.code == "DUPLICATE_IDENTIFIER"


# -------------------------------
# describe
# -------------------------------

def test_describe_matches_bruteforce(material_collection):
    summary = describe(material_collection)
    # independent set comprehension over the raw trees
    expected_materials = sorted({
        e.metadata.root["system"]["electrodes"]["working_electrode"]
        ["material"] for e in material_collection})
    assert summary["number of entries"] == 3
    assert summary["materials"] == expected_materials
    assert summary["materials"] == ["Au", "Pt"]
    assert summary["references"] == ["au-2024", "pt-2024"]


def test_describe_empty_collection():
    summary = describe(Collection(entries=()))
    assert summary == {"number of entries": 0, "materials": [],
                       "references": []}


def test_describe_path_absent_everywhere(material_collection):
    profile = Profile(name="p", describe_paths=(("ghosts", "no.such.path"),))
    assert describe(material_collection, profile)["ghosts"] == []


def test_describe_is_json(material_collection):
    json.dumps(describe(material_collection))


# -------------------------------
# profiles
# -------------------------------

def test_load_profile(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text(
        "name: cv\ndescribe:\n  - label: materials\n"
        "    path: system.electrodes.working_electrode.material\n"
        "accessors:\n  - system.electrolyte\n", encoding="utf-8")
    profile = load_profile(path)
    assert profile.name == "cv"
    assert profile.describe_paths == (
        ("materials", "system.electrodes.working_electrode.material"),)


@pytest.mark.parametrize("text", [
    "describe: [broken\n",
    "first: &p x\ndescribe:\n  - label: m\n    path: *p\n",
])
def test_load_profile_rejects_malformed_yaml(tmp_path, text):
    path = tmp_path / "profile.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MetadataParseError):
        load_profile(path)


@pytest.mark.parametrize("describe", ["5", "{label: m, path: x}", "{}",
                                      "false", "0", "''"])
def test_profile_describe_must_be_a_list(tmp_path, describe):
    path = tmp_path / "profile.yaml"
    path.write_text(f"describe: {describe}\n", encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        load_profile(path)
    assert excinfo.value.code == "PROFILE_INVALID"


@pytest.mark.parametrize("text", ["name: p\n", "name: p\ndescribe:\n",
                                  "name: p\ndescribe: null\n"])
def test_an_absent_or_null_describe_is_empty(tmp_path, text):
    path = tmp_path / "profile.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_profile(path).describe_paths == ()


def test_undecodable_profile_is_parse_error(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_bytes(b"name: \xff\n")
    with pytest.raises(MetadataParseError, match="not UTF-8"):
        load_profile(path)


def test_profile_duplicate_labels_rejected():
    with pytest.raises(Exception) as excinfo:
        Profile(name="p", describe_paths=(("a", "x"), ("a", "y")))
    assert "unique" in str(excinfo.value)


@pytest.mark.parametrize("text", [
    "describe:\n  - {label: true, path: x}\n",
    "describe:\n  - {label: null, path: 5}\n",
    "describe:\n  - {label: [1], path: {a: 1}}\n",
    "describe:\n  - {label: m, path: 5}\n",
    "name: 7\ndescribe: []\n",
    "name:\n",
], ids=["label true", "label null", "label list", "path number",
        "name number", "name null"])
def test_profile_name_label_and_path_must_be_text(tmp_path, text):
    path = tmp_path / "profile.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        load_profile(path)
    assert excinfo.value.code == "PROFILE_INVALID"


def test_profile_label_cannot_take_the_entry_count(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text("describe:\n  - {label: number of entries, path: x}\n",
                    encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        load_profile(path)
    assert excinfo.value.code == "PROFILE_INVALID"
    assert "number of entries" in str(excinfo.value)
