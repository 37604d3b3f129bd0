"""Structured metadata documents: load, address, validate, scan, filter.

Documents are plain trees (dicts with string keys, lists, and the scalar
types str/int/float/bool/None) so they serialize to JSON unchanged.
Dot-paths address nodes; a path segment matches a map key when the two
are equal after lowercasing and replacing spaces with underscores, which
makes ``figure_description.fields`` reach the YAML key
``figure description``.
"""

from __future__ import annotations

import json
import os
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
    UnsupportedExtension,
)

Node = None | bool | int | float | str | list | dict


@dataclass(frozen=True)
class MetadataDoc:
    root: Node

    def get(self, path: str) -> Node:
        return get_path(self, path)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.root, indent=indent, ensure_ascii=False)


@dataclass(frozen=True)
class SchemaDoc:
    root: dict


@dataclass(frozen=True)
class Violation:
    path: str
    reason: str


class _StrictYamlLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate keys and aliases and keeps dates
    as strings.  An alias shares its anchor's node, so a few bytes of
    nested aliases can expand into a document of any size."""

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


# Dates stay plain strings: the document model has no date scalar.
_StrictYamlLoader.yaml_implicit_resolvers = {
    first: [(tag, regexp) for tag, regexp in resolvers
            if tag != "tag:yaml.org,2002:timestamp"]
    for first, resolvers in _StrictYamlLoader.yaml_implicit_resolvers.items()
}


def _json_pairs_hook(pairs):
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise DuplicateKey(f"duplicate key {key!r} in one map")
        mapping[key] = value
    return mapping


def parse_yaml(text: str) -> Node:
    try:
        return yaml.load(text, Loader=_StrictYamlLoader)
    except (DuplicateKey, MetadataParseError):
        raise
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise MetadataParseError(
            str(exc.problem or exc),
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from exc
    except yaml.YAMLError as exc:
        raise MetadataParseError(str(exc)) from exc


def parse_json(text: str) -> Node:
    try:
        return json.loads(text, object_pairs_hook=_json_pairs_hook)
    except DuplicateKey:
        raise
    except json.JSONDecodeError as exc:
        raise MetadataParseError(exc.msg, line=exc.lineno,
                                 column=exc.colno) from exc


def load_document(path: str | Path) -> MetadataDoc:
    """Load a YAML or JSON metadata document from disk."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".yaml", ".yml", ".json"):
        raise UnsupportedExtension(
            f"unsupported metadata extension {path.suffix!r} "
            f"(expected .yaml, .yml, or .json): {path}")
    text = path.read_text(encoding="utf-8-sig")
    root = parse_json(text) if suffix == ".json" else parse_yaml(text)
    return MetadataDoc(root=root)


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
_TYPE_NAMES = {"string", "number", "integer", "boolean", "object", "array",
               "null"}


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


def _type_matches(node: Node, type_name: str) -> bool:
    if type_name == "string":
        return isinstance(node, str)
    if type_name == "number":
        return isinstance(node, (int, float)) and not isinstance(node, bool)
    if type_name == "integer":
        return isinstance(node, int) and not isinstance(node, bool)
    if type_name == "boolean":
        return isinstance(node, bool)
    if type_name == "object":
        return isinstance(node, dict)
    if type_name == "array":
        return isinstance(node, list)
    return node is None  # "null"


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
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def _join(path: str, segment: str) -> str:
    return f"{path}.{segment}" if path else segment


def _validate_node(node: Node, schema: dict, path: str,
                   out: list[Violation]) -> None:
    type_name = schema.get("type")
    if type_name is not None and not _type_matches(node, type_name):
        out.append(Violation(path or "<root>",
                             f"expected {type_name}, found {_type_name(node)}"))
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


def _temp_path(target: Path) -> Path:
    """A fresh hidden name beside `target` that no collection reads."""
    return target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")


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


def _walk(top: str, accept, recursive: bool = True,
          list_dir=_list_dir) -> list[str]:
    """The paths of the regular files below `top` that `accept` takes, in
    no particular order.  Paths are spelled as `pathlib` spells them (no
    leading ``./``), and `list_dir` may answer from a cache."""
    found, stack = [], [top]
    while stack:
        files, dirs = list_dir(stack.pop(), accept)
        found += files
        if recursive:
            stack += dirs
    return found


@dataclass(frozen=True)
class ScanResult:
    documents: list[tuple[Path, MetadataDoc]]
    failures: list[tuple[Path, str]]


def scan_metadata_directory(directory: str | Path) -> ScanResult:
    """Collect and parse every ``*.meta.yaml`` below a directory.

    Parse failures are reported per file and skipped; the result is
    sorted by path regardless of file-system enumeration order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DirectoryNotFound(f"not a directory: {directory}")
    documents: list[tuple[Path, MetadataDoc]] = []
    failures: list[tuple[Path, str]] = []
    for name in sorted(_walk(str(directory),
                             lambda path: path.endswith(META_SUFFIX))):
        path = Path(name)
        try:
            documents.append((path, load_document(path)))
        except (MetadataParseError, DuplicateKey, UnsupportedExtension) as exc:
            failures.append((path, str(exc)))
    return ScanResult(documents=documents, failures=failures)


def filter_metadata(docs: list[tuple[Path, MetadataDoc]], path: str,
                    expected: Node) -> list[tuple[Path, MetadataDoc]]:
    """Keep documents whose scalar at `path` equals `expected`."""
    expected_text = canonical_scalar(expected)
    kept = []
    for pair in docs:
        try:
            node = get_path(pair[1], path)
        except (PathNotFound, AmbiguousKey):
            continue
        if is_scalar(node) and canonical_scalar(node) == expected_text:
            kept.append(pair)
    return kept
