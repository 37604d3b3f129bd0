"""Structured metadata documents: load, address, validate, scan, filter.

Documents are plain trees (dicts with string keys, lists, and the scalar
types str/int/float/bool/None) that hold JSON values only, so they
serialize to JSON unchanged: YAML builds no other node kind (a date
stays a string), and a document holding a NaN or an infinity, or whose
escapes leave a lone surrogate, which no UTF-8 file holds, is refused.
`dump_json` is the one writer of JSON text: descriptors, report cells
and what ``show`` and ``describe`` print.  Dot-paths address nodes; a
path segment matches a map key when the two are equal after lowercasing
and replacing spaces with underscores, which makes
``figure_description.fields`` reach the YAML key ``figure description``.

Package files, report pages and sidecars are written under a `_staged`
temp name and moved or linked into place.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import (
    AmbiguousKey,
    DirectoryNotFound,
    DuplicateKey,
    MetadataParseError,
    PathNotFound,
    SchemaMalformed,
    SchemaUnsupportedKeyword,
    UnitpackError,
    UnsupportedExtension,
    error_code,
)

Node = None | bool | int | float | str | list | dict


@dataclass(frozen=True)
class MetadataDoc:
    root: Node

    def to_json(self, indent: int | None = None) -> str:
        return dump_json(self.root, indent=indent)


def dump_json(node: Node, indent: int | None = None) -> str:
    """The JSON text of `node`, every character as itself.  A NaN or an
    infinity, which JSON has no token for, is a `ValueError`; no reader
    builds one."""
    return json.dumps(node, indent=indent, ensure_ascii=False,
                      allow_nan=False)


@dataclass(frozen=True)
class SchemaDoc:
    root: dict


@dataclass(frozen=True)
class Violation:
    path: str
    reason: str


class _StrictYamlLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate keys and aliases and builds only
    the node kinds JSON has; a date, implicit or tagged, stays a string,
    and any other tag (``!!binary``, ``!!set``, ``!!omap``, ``!!pairs``)
    is a parse error.  An alias shares its anchor's node, so a few bytes
    of nested aliases can expand into a document of any size.  A float
    must be finite: ``.inf``, ``.nan`` and ``1.0e+400`` are parse errors,
    since JSON has no token for them."""

    def construct_finite_float(self, node):
        value = self.construct_yaml_float(node)
        if not math.isfinite(value):
            raise MetadataParseError(
                f"the number {node.value} is not finite",
                line=node.start_mark.line + 1,
                column=node.start_mark.column + 1)
        return value

    # A table of its own: `SafeLoader`'s is shared by every PyYAML user.
    yaml_constructors = {
        tag: yaml.SafeLoader.yaml_constructors[tag]
        for tag in (None, *(f"tag:yaml.org,2002:{kind}" for kind in (
            "null", "bool", "int", "str", "seq", "map")))
    } | {"tag:yaml.org,2002:timestamp": yaml.SafeLoader.construct_yaml_str,
         "tag:yaml.org,2002:float": construct_finite_float}

    def fetch_alias(self):
        # The scanner calls this only at a `*`, so documents without
        # aliases pay nothing for the check.
        mark = self.get_mark()
        raise MetadataParseError("YAML aliases are not supported",
                                 line=mark.line + 1, column=mark.column + 1)

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=True)
            if not isinstance(key, str):
                raise MetadataParseError(
                    f"non-string map key {key!r}",
                    line=key_node.start_mark.line + 1,
                    column=key_node.start_mark.column + 1)
            if key in seen:
                raise DuplicateKey(
                    f"duplicate key {key!r} in one map "
                    f"(line {key_node.start_mark.line + 1})")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _json_pairs_hook(pairs):
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise DuplicateKey(f"duplicate key {key!r} in one map")
        mapping[key] = value
    return mapping


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise MetadataParseError(f"the number {text} is not finite")
    return value


# Beside the parsers' own errors, both raise `ValueError` for an integer
# of more than 4300 digits (`int`'s limit) and `RecursionError` for a
# document nested too deeply; each is a `MetadataParseError` too.
def parse_yaml(text: str) -> Node:
    try:
        return yaml.load(text, Loader=_StrictYamlLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise MetadataParseError(
            str(exc.problem or exc),
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from exc
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise MetadataParseError(str(exc)) from exc


# `json.loads` with a hook builds a new decoder on every call.  `NaN`,
# `Infinity` and `-Infinity` reach `parse_constant`, and a number past
# the float range, such as ``1e999``, reaches `parse_float`.
_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_json_pairs_hook,
                                 parse_float=_finite, parse_constant=_finite)


def parse_json(text: str) -> Node:
    try:
        return _JSON_DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise MetadataParseError(exc.msg, line=exc.lineno,
                                 column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        raise MetadataParseError(str(exc)) from exc


# The most bytes that one `os.read` of `_read_bytes` asks for.
_READ_CHUNK = 1 << 16


def _read_bytes(path: str | Path, limit: int = sys.maxsize) -> bytes:
    """The first `limit` bytes of the file at `path`, or all of them if it
    is shorter: `os.read` until the limit or the end of the file, with no
    file object, buffer or decoder between.  A directory is the
    `IsADirectoryError` naming `path` that `open` raises."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while limit > 0 and (chunk := os.read(fd, min(limit, _READ_CHUNK))):
            chunks.append(chunk)
            limit -= len(chunk)
        return b"".join(chunks)
    except IsADirectoryError as exc:  # `os.read` names no file
        raise IsADirectoryError(exc.errno, exc.strerror,
                                os.fspath(path)) from None
    finally:
        os.close(fd)


def _read_document(path: str | Path, parse) -> Node:
    """`parse` of the UTF-8 text of the file at `path`, a leading BOM
    dropped.  Opening a FIFO blocks, so a path that is neither a regular
    file nor a directory is refused first.  Strict decoding keeps lone
    surrogates out of the text, and a document whose ``\\u`` or ``\\U``
    escapes put one in a string is refused too: no such string encodes.
    Only a text with a backslash is checked for that.
    A `UnitpackError` raised here or by `parse` starts with
    ``"<path>: "``; an `OSError` passes as is."""
    if stat.S_IFMT(os.stat(path).st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
        raise MetadataParseError(f"{path}: not a regular file")
    try:
        text = _read_bytes(path).decode("utf-8-sig")
        root = parse(text)
        # A search for one character is many times faster than for two.
        if "\\" in text:
            try:
                dump_json(root).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise MetadataParseError(
                    f"an escape leaves the lone surrogate "
                    f"{exc.object[exc.start]!r}") from None
        return root
    except UnicodeDecodeError as exc:
        raise MetadataParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except UnitpackError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_document(path: str | Path) -> MetadataDoc:
    """Load a YAML or JSON metadata document from disk."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".yaml", ".yml", ".json"):
        raise UnsupportedExtension(
            f"unsupported metadata extension {path.suffix!r} "
            f"(expected .yaml, .yml, or .json): {path}")
    return MetadataDoc(root=_read_document(
        path, parse_json if suffix == ".json" else parse_yaml))


def normalize_key(key: str) -> str:
    return key.lower().replace(" ", "_")


def get_path(doc: MetadataDoc | Node, path: str) -> Node:
    """Resolve a dot-path against a document (or bare tree node).

    Map keys match normalized segments; integer segments index
    sequences.  PathNotFound reports the deepest prefix that resolved.
    """
    if not path or not path.strip():
        raise PathNotFound("empty path")
    node = doc.root if isinstance(doc, MetadataDoc) else doc
    resolved: list[str] = []
    for segment in path.split("."):
        prefix = ".".join(resolved)
        if isinstance(node, dict):
            wanted = normalize_key(segment)
            matches = [k for k in node if normalize_key(k) == wanted]
            if len(matches) > 1:
                raise AmbiguousKey(
                    f"segment {segment!r} matches {len(matches)} sibling "
                    f"keys ({', '.join(map(repr, sorted(matches)))}) "
                    f"after {prefix!r}")
            if not matches:
                raise PathNotFound(
                    f"no key matching {segment!r} after {prefix!r}",
                    resolved_prefix=prefix)
            node = node[matches[0]]
        elif isinstance(node, list):
            try:
                index = int(segment)
            except ValueError:
                raise PathNotFound(
                    f"segment {segment!r} is not a sequence index "
                    f"after {prefix!r}", resolved_prefix=prefix) from None
            if not 0 <= index < len(node):
                raise PathNotFound(
                    f"index {index} out of range after {prefix!r}",
                    resolved_prefix=prefix)
            node = node[index]
        else:
            raise PathNotFound(
                f"cannot descend into scalar at {prefix!r} looking for "
                f"{segment!r}", resolved_prefix=prefix)
        resolved.append(segment)
    return node


# What `find_path` returns when a path names no one node.  It is not a
# Node, so no scalar, list or str check accepts it; `None` would not do,
# since that is a present ``null``.
ABSENT = object()


def find_path(doc: MetadataDoc | Node, path: str) -> Node:
    """`get_path`, but a missing or ambiguous path gives `ABSENT`."""
    try:
        return get_path(doc, path)
    except (PathNotFound, AmbiguousKey):
        return ABSENT


def is_scalar(node: Node) -> bool:
    return node is None or isinstance(node, (bool, int, float, str))


def canonical_scalar(node: Node) -> str:
    """Canonical string rendering used for scalar comparisons.

    Numbers render via Python's shortest round-trip representation, so
    YAML ``1.0`` and JSON ``1.0`` compare equal.
    """
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, (int, float)):
        return repr(node)
    if isinstance(node, str):
        return node
    raise TypeError(f"not a scalar: {type(node).__name__}")


# --- JSON-Schema subset ----------------------------------------------------

_SCHEMA_KEYWORDS = {"type", "properties", "required", "items", "enum",
                    "additionalProperties"}
# A tuple: a list or map `type` is compared (and refused), not hashed.
_TYPE_NAMES = ("string", "number", "integer", "boolean", "object", "array",
               "null")


def _check_schema_node(node: Node, path: str) -> None:
    if not isinstance(node, dict):
        raise SchemaMalformed(f"schema at {path or '<root>'} must be a map")
    for keyword in node:
        if keyword not in _SCHEMA_KEYWORDS:
            raise SchemaUnsupportedKeyword(
                f"unsupported schema keyword {keyword!r} at "
                f"{path or '<root>'}")
    if "type" in node and node["type"] not in _TYPE_NAMES:
        raise SchemaMalformed(
            f"bad type {node['type']!r} at {path or '<root>'}")
    if "required" in node:
        req = node["required"]
        if not isinstance(req, list) or not all(isinstance(k, str) for k in req):
            raise SchemaMalformed(
                f"'required' must be a list of strings at {path or '<root>'}")
    if "enum" in node and not isinstance(node["enum"], list):
        raise SchemaMalformed(f"'enum' must be a list at {path or '<root>'}")
    if "additionalProperties" in node and \
            not isinstance(node["additionalProperties"], bool):
        raise SchemaMalformed(
            f"'additionalProperties' must be a boolean at {path or '<root>'}")
    if "properties" in node:
        props = node["properties"]
        if not isinstance(props, dict):
            raise SchemaMalformed(
                f"'properties' must be a map at {path or '<root>'}")
        for name, sub in props.items():
            _check_schema_node(sub, f"{path}.{name}" if path else name)
    if "items" in node:
        _check_schema_node(node["items"], f"{path}[]" if path else "[]")


def load_schema(path: str | Path) -> SchemaDoc:
    """Load a schema document, rejecting unsupported keywords outright."""
    doc = load_document(path)
    _check_schema_node(doc.root, "")
    return SchemaDoc(root=doc.root)


def _type_name(node: Node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "boolean"
    if isinstance(node, int):
        return "integer"
    if isinstance(node, float):
        return "number"
    if isinstance(node, str):
        return "string"
    if isinstance(node, list):
        return "array"
    return "object"


def _values_equal(a: Node, b: Node) -> bool:
    """JSON Schema's instance equality: a boolean never equals a number,
    two numbers compare by value, lists and maps member by member.  The
    members are taken from a stack, not by recursion, so a value nested
    as deep as a parser allows cannot overflow Python's stack."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if isinstance(a, bool) != isinstance(b, bool):
            return False
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                return False
            pending.extend((a[key], b[key]) for key in a)
        elif a != b:
            return False
    return True


def _join(path: str, segment: str) -> str:
    return f"{path}.{segment}" if path else segment


def _validate_node(node: Node, schema: dict, path: str,
                   out: list[Violation]) -> None:
    expected, found = schema.get("type"), _type_name(node)
    if expected not in (None, found) and \
            (expected, found) != ("number", "integer"):
        out.append(Violation(path or "<root>",
                             f"expected {expected}, found {found}"))
        return
    if "enum" in schema and not any(_values_equal(node, allowed)
                                    for allowed in schema["enum"]):
        out.append(Violation(path or "<root>", "value not in enum"))
    if isinstance(node, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in node:
                out.append(Violation(_join(path, key),
                                     f"missing required key {key!r}"))
        for key, sub in properties.items():
            if key in node:
                _validate_node(node[key], sub, _join(path, key), out)
        if schema.get("additionalProperties") is False:
            for key in node:
                if key not in properties:
                    out.append(Violation(_join(path, key),
                                         f"unexpected key {key!r}"))
    elif isinstance(node, list) and "items" in schema:
        for index, element in enumerate(node):
            _validate_node(element, schema["items"], _join(path, str(index)),
                           out)


def validate(doc: MetadataDoc, schema: SchemaDoc) -> list[Violation]:
    """Check a document against a schema; empty list means valid."""
    out: list[Violation] = []
    _validate_node(doc.root, schema.root, "", out)
    return out


# --- directory scan & filter ------------------------------------------------

META_SUFFIX = ".meta.yaml"


# The names `_staged` gives; the watcher never tags a file so named.
_STAGED_GLOB = f".*.{'[0-9a-f]' * 12}.tmp"


@contextmanager
def _staged(target: Path):
    """A fresh hidden name beside `target` that no collection reads, for
    the block to write and move into place; whatever the name still holds
    when the block ends is removed."""
    temp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        yield temp
    finally:
        temp.unlink(missing_ok=True)


def _list_dir(directory: str, accept) -> tuple[list[str], list[str]]:
    """The paths of the regular files in `directory` (a symlink to one
    counts) that `accept` takes, and of its subdirectories, where a
    symlink to a directory does not count.  Names are judged before any
    `stat`; a directory that cannot be read lists as empty."""
    prefix = "" if directory == os.curdir else os.path.join(directory, "")
    files, dirs = [], []
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                path = prefix + entry.name
                try:
                    if entry.is_dir(follow_symlinks=False):
                        dirs.append(path)
                    elif accept(path) and entry.is_file():
                        files.append(path)
                except OSError:
                    continue
    except OSError:
        pass
    return files, dirs


def _walk(top: str, accept, recursive: bool = True) -> list[str]:
    """The paths of the regular files below `top` that `accept` takes, in
    no particular order.  Paths are spelled as `pathlib` spells them (no
    leading ``./``)."""
    found, stack = [], [top]
    while stack:
        files, dirs = _list_dir(stack.pop(), accept)
        found += files
        if recursive:
            stack += dirs
    return found


def _load_each(directory: str | Path, suffix: str, load
               ) -> tuple[list[tuple[str, object]], list[tuple[str, str]]]:
    """`load` of each regular file below `directory` whose name ends in
    `suffix`, in path order, as ``(path, loaded)`` pairs, and each file
    whose `load` raised a `UnitpackError` or an `OSError` as its
    ``(path, "CODE: message")`` pair."""
    directory = str(Path(directory))
    if not os.path.isdir(directory):
        raise DirectoryNotFound(f"not a directory: {directory}")
    loaded, failures = [], []
    for path in sorted(_walk(directory, lambda path: path.endswith(suffix))):
        try:
            loaded.append((path, load(path)))
        except (UnitpackError, OSError) as exc:
            failures.append((path, f"{error_code(exc)}: {exc}"))
    return loaded, failures


@dataclass(frozen=True)
class ScanResult:
    documents: list[tuple[Path, MetadataDoc]]
    failures: list[tuple[Path, str]]


def scan_metadata_directory(directory: str | Path) -> ScanResult:
    """Collect and parse every ``*.meta.yaml`` below a directory.

    Parse failures are reported per file as ``CODE: message`` and
    skipped; the result is sorted by path regardless of file-system
    enumeration order.
    """
    documents, failures = _load_each(directory, META_SUFFIX, load_document)
    return ScanResult(
        documents=[(Path(path), doc) for path, doc in documents],
        failures=[(Path(path), message) for path, message in failures])


def filter_metadata(docs: list[tuple[Path, MetadataDoc]], path: str,
                    expected: Node) -> list[tuple[Path, MetadataDoc]]:
    """Keep documents whose scalar at `path` equals `expected`."""
    expected_text = canonical_scalar(expected)
    kept = []
    for pair in docs:
        node = find_path(pair[1], path)
        if is_scalar(node) and canonical_scalar(node) == expected_text:
            kept.append(pair)
    return kept
