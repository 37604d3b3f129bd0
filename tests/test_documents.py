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
from typing import NamedTuple

import pytest

from unitpack.errors import UnitpackError

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

