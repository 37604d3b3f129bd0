"""The five readers of YAML and JSON documents: a metadata document (and
through it a schema), a package descriptor, a watcher template, a loader
spec and a profile.  Each reads its file through `metadata`'s one
reader, so each takes the same inputs the same way, fails with its own
code, and names the file in the message."""

import importlib
import json
import os
import subprocess
import sys
import threading
from contextlib import suppress
from typing import NamedTuple

import pytest

from unitpack import cli
from unitpack.errors import UnitpackError, error_code

from conftest import DEMO_CSV


class Reader(NamedTuple):
    module: str
    function: str
    suffix: str
    valid: str  # a document it reads
    code: str  # of a file it cannot read or decode
    repeated_key: str  # the code of a repeated key


READERS = {
    "document": Reader("unitpack.metadata", "load_document", ".yaml",
                       "user: Max Doe\n", "PARSE_ERROR", "DUPLICATE_KEY"),
    "descriptor": Reader(
        "unitpack.datapackage", "load_entry", ".json",
        json.dumps({"resources": [{
            "name": "data", "path": "data.csv",
            "schema": {"fields": [{"name": "t"}, {"name": "U"},
                                  {"name": "T"}]},
            "metadata": {"user": "Max Doe"}}]}),
        "DESCRIPTOR_PARSE_ERROR", "DESCRIPTOR_PARSE_ERROR"),
    "template": Reader("unitpack.autotag", "load_template", ".yaml",
                       "user: Max Doe\n", "TEMPLATE_PARSE_ERROR",
                       "TEMPLATE_PARSE_ERROR"),
    "loader spec": Reader("unitpack.tabular", "load_loader_spec", ".yaml",
                          "header_row: 0\n", "PARSE_ERROR",
                          "DUPLICATE_KEY"),
    "profile": Reader("unitpack.collection", "load_profile", ".yaml",
                      "name: p\n", "PARSE_ERROR", "DUPLICATE_KEY"),
}

# A JSON map is a YAML flow map too, and every reader parses its file
# before it looks at a key, so one text serves all five.
REPEATED_KEYS = {
    "top level": '{"user": "Max", "user": "Max Doe"}',
    "two maps deep": '{"a": {"b": {"user": "Max", "user": "Max Doe"}}}',
}

# Run in a child: opening a FIFO for reading blocks until a writer comes,
# so a regression fails with the child's stack instead of hanging.
CHILD = """
import faulthandler, importlib, sys
faulthandler.dump_traceback_later(10, exit=True)
module, function, path = sys.argv[1:]
try:
    getattr(importlib.import_module(module), function)(path)
except Exception as exc:
    print(getattr(exc, "code", repr(exc)), exc)
"""


def _path(tmp_path, name):
    """Where reader `name` reads from; a descriptor gets its CSV."""
    if name == "descriptor":
        (tmp_path / "data.csv").write_text(DEMO_CSV, encoding="utf-8")
    return tmp_path / ("input" + READERS[name].suffix)


def _read(name, path):
    reader = READERS[name]
    return getattr(importlib.import_module(reader.module),
                   reader.function)(path)


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("where", sorted(REPEATED_KEYS))
def test_a_repeated_key_is_the_readers_code(tmp_path, name, where):
    path = _path(tmp_path, name)
    path.write_text(REPEATED_KEYS[where], encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].repeated_key
    assert "duplicate key 'user'" in str(excinfo.value)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_parse_error_is_the_readers_code(tmp_path, name):
    path = _path(tmp_path, name)
    path.write_text('{"user": [\n', encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].code
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_byte_that_does_not_decode_is_the_readers_code(tmp_path, name):
    path = _path(tmp_path, name)
    path.write_bytes(b'{"user": "\xff"}\n')
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].code
    assert str(path) in str(excinfo.value)


# A node kind JSON has not is no JSON at all, so one text serves all five.
@pytest.mark.parametrize("name", sorted(READERS))
def test_a_yaml_node_kind_beyond_json_is_the_readers_code(tmp_path, name):
    path = _path(tmp_path, name)
    path.write_text('{"user": !!set {a: null}}', encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].code
    assert str(path) in str(excinfo.value)


# Each escape leaves a lone surrogate in a key or a value; JSON has no
# `\U` escape, so that text is a JSON parse error.
@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("text", [r'{"user": "\udcff"}', r'{"k\udcff": 1}',
                                  r'{"user": ["\ude00\ud83d"]}',
                                  r'{"user": "\U0000dcff"}'])
def test_an_escape_to_a_lone_surrogate_is_the_readers_code(tmp_path, name,
                                                          text):
    path = _path(tmp_path, name)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].code
    assert str(path) in str(excinfo.value)


# JSON has no token for a NaN or an infinity.  Python's `json` reads
# ``NaN``, ``Infinity`` and ``-Infinity``, and both parsers read a number
# past the float range as an infinity.
NON_FINITE = {".json": ["NaN", "Infinity", "-Infinity", "1e999", "-1e400"],
              ".yaml": [".inf", "-.Inf", ".nan", "1.0e+400", "!!float 1e999"]}


@pytest.mark.parametrize("name, number", [
    (name, number) for name in sorted(READERS)
    for number in NON_FINITE[READERS[name].suffix]])
def test_a_non_finite_number_is_the_readers_code(tmp_path, name, number):
    path = _path(tmp_path, name)
    path.write_text(f'{{"user": [1.5,\n {number}]}}', encoding="utf-8")
    with pytest.raises(UnitpackError) as excinfo:
        _read(name, path)
    assert excinfo.value.code == READERS[name].code
    assert str(path) in str(excinfo.value)
    assert f"the number {number.split()[-1]} is not finite" \
        in str(excinfo.value)
    if READERS[name].suffix == ".yaml":
        assert str(excinfo.value).endswith("(line 2, column 2)")


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_leading_bom_is_dropped(tmp_path, name):
    path = _path(tmp_path, name)
    valid = READERS[name].valid
    path.write_text(valid, encoding="utf-8")
    plain = _read(name, path)
    path.write_text("\ufeff" + valid, encoding="utf-8")
    assert _read(name, path) == plain


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("name", sorted(READERS))
def test_a_fifo_is_the_readers_code_at_once(tmp_path, name):
    path = _path(tmp_path, name)
    os.mkfifo(path)
    reader = READERS[name]
    process = subprocess.run(
        [sys.executable, "-X", "faulthandler", "-c", CHILD, reader.module,
         reader.function, str(path)],
        capture_output=True, encoding="utf-8", timeout=30)
    assert (process.returncode, process.stdout.split(" ", 1)[0]) == \
        (0, reader.code), process.stderr
    assert f"{path}: not a regular file" in process.stdout



# -------------------------------
# The raw read: each input gives the code and message, here with
# "{path}" for its path, that it gave when read through a file object.
# -------------------------------

RAW_INPUTS = {
    "directory": None, "fifo": None,
    "bom": b"\xef\xbb\xbf" + READERS["descriptor"].valid.encode(),
    "bad utf-8": b'{"user": "\xff"}',
    "escaped surrogate": rb'{"user": "\udcff"}',
    # the name's byte 0xff does not decode, so the path holds "\udcff"
    "undecodable name": READERS["descriptor"].valid.encode(),
}
_NOT_UTF8 = ("not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
             "position 10: invalid start byte")
# None: the input loads.
RAW_OUTCOMES = {
    ("directory", ".json"): "DESCRIPTOR_PARSE_ERROR: no such descriptor: "
                            "{path}",
    ("directory", ".yaml"): "IO_ERROR: [Errno 21] Is a directory: '{path}'",
    ("fifo", ".json"): "DESCRIPTOR_PARSE_ERROR: bad JSON in {path}: not a "
                       "regular file",
    ("fifo", ".yaml"): "PARSE_ERROR: {path}: not a regular file",
    ("bom", ".json"): None, ("bom", ".yaml"): None,
    ("bad utf-8", ".json"): "DESCRIPTOR_PARSE_ERROR: bad JSON in {path}: "
                            + _NOT_UTF8,
    ("bad utf-8", ".yaml"): "PARSE_ERROR: {path}: " + _NOT_UTF8,
    ("escaped surrogate", ".json"): "DESCRIPTOR_PARSE_ERROR: bad JSON in "
                                    "{path}: an escape leaves the lone "
                                    "surrogate '\\udcff'",
    ("escaped surrogate", ".yaml"): "PARSE_ERROR: {path}: an escape leaves "
                                    "the lone surrogate '\\udcff'",
    ("undecodable name", ".json"): None,
    ("undecodable name", ".yaml"): None,
}


def _raw_input(tmp_path, kind, suffix):
    """The path of input `kind`, named with `suffix`; a descriptor's CSV
    is beside it."""
    (tmp_path / "data.csv").write_text(DEMO_CSV, encoding="utf-8")
    stem = "\udcff" if kind == "undecodable name" else "input"
    path = tmp_path / (stem + suffix)
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    else:
        path.write_bytes(RAW_INPUTS[kind])
    return path


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _outcome(load, path):
    """"CODE: message" of `load(path)`, or None if it loads.  Opening a
    FIFO blocks until a writer comes, so one comes after 10 s to turn a
    hang into a wrong outcome."""
    def unblock():
        with suppress(OSError):  # no reader is waiting
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

    timer = threading.Timer(10, unblock)
    timer.start()
    try:
        load(path)
    except (UnitpackError, OSError) as exc:
        return f"{error_code(exc)}: {exc}".replace(str(path), "{path}")
    finally:
        timer.cancel()
    return None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("kind, suffix", sorted(RAW_OUTCOMES))
def test_a_document_reads_as_through_a_file_object(tmp_path, kind, suffix):
    path = _raw_input(tmp_path, kind, suffix)
    name = "descriptor" if suffix == ".json" else "document"
    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None
    assert _outcome(lambda path: _read(name, path), path) == \
        RAW_OUTCOMES[kind, suffix]
    if fds is not None:
        assert _open_fds() == fds


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("kind", sorted(RAW_INPUTS))
def test_ls_skip_errors_reads_a_descriptor_as_through_a_file_object(
        tmp_path, capsys, caplog, kind):
    path = _raw_input(tmp_path, kind, ".json")
    with caplog.at_level("WARNING", logger="unitpack.collection"):
        code = cli.main(["ls", str(tmp_path), "--skip-errors"])
    out, err = capsys.readouterr()
    warnings = [record.getMessage().replace(str(path), "{path}")
                for record in caplog.records]
    message = RAW_OUTCOMES[kind, ".json"]
    if kind in ("directory", "fifo"):  # not a file, so not a descriptor
        assert (code, out, err, warnings) == (0, "", "", [])
    elif message is None:
        assert (code, out, err, warnings) == (0, "data\n", "", [])
    else:
        assert (code, out, err, warnings) == \
            (0, "", "", [f"skipping {{path}}: {message}"])
