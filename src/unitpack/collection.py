"""Collections of entries: load from a directory or ZIP, look up by
identifier, filter by metadata predicates, and summarize via profiles."""

from __future__ import annotations

import logging
import operator
import shlex
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from .datapackage import Entry, _stays_inside, load_entry
from .errors import (
    BadArchive,
    CollectionLoadError,
    DuplicateIdentifier,
    EntryNotFound,
    FetchError,
    PredicateParseError,
    ProfileInvalid,
)
from .metadata import (_load_each, _read_document, _type_name,
                       _values_equal, canonical_scalar, find_path, is_scalar,
                       parse_yaml)
from .tabular import _is_number, _typed_cell

log = logging.getLogger("unitpack.collection")

FETCH_TIMEOUT_S = 30
# Bounds on what `from_archive` will download and unpack.
MAX_DOWNLOAD_BYTES = 1 << 30
MAX_ARCHIVE_MEMBERS = 100_000
MAX_EXTRACTED_BYTES = 4 << 30


@dataclass(frozen=True)
class Collection:
    """Identifier-keyed, lexicographically ordered set of entries."""

    entries: tuple[Entry, ...]
    _by_id: dict[str, Entry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: e.identifier))
        by_id: dict[str, Entry] = {}
        for entry in ordered:
            if entry.identifier in by_id:
                raise DuplicateIdentifier(
                    f"duplicate identifier {entry.identifier!r}")
            by_id[entry.identifier] = entry
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_by_id", by_id)

    @property
    def identifiers(self) -> tuple[str, ...]:
        return tuple(e.identifier for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, identifier: str) -> Entry:
        return get(self, identifier)

    def __repr__(self) -> str:
        return f"[{', '.join(repr(e) for e in self.entries)}]"


def from_directory(directory: str | Path, skip_errors: bool = False
                   ) -> Collection:
    """Load every ``*.json`` descriptor below `directory` (recursive).

    Per-file load errors are fatal by default and raised aggregated;
    with `skip_errors` they are logged and skipped.  Two descriptors
    yielding the same identifier are always fatal.
    """
    return _load_directory(Path(directory), skip_errors, load_entry)


def _load_directory(directory: Path, skip_errors: bool, load) -> Collection:
    """`from_directory`, with `load` turning each descriptor path into an
    entry; its `UnitpackError`s and `OSError`s are per-file load errors."""
    loaded, failures = _load_each(directory, ".json", load)
    sources: dict[str, str] = {}
    for json_path, entry in loaded:
        if entry.identifier in sources:
            raise DuplicateIdentifier(
                f"identifier {entry.identifier!r} produced by both "
                f"{sources[entry.identifier]} and {json_path}")
        sources[entry.identifier] = json_path
    if failures:
        if not skip_errors:
            details = "; ".join(f"{p}: {m}" for p, m in failures)
            raise CollectionLoadError(
                f"{len(failures)} descriptor(s) failed to load: {details}",
                failures=failures)
        for path, message in failures:
            log.warning("skipping %s: %s", path, message)
    return Collection(entries=tuple(entry for _, entry in loaded))


def _fetch_to_file(url: str, target: Path) -> None:
    import urllib.request  # imported here: no other command pays for it

    size = 0
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response, \
                target.open("wb") as out:
            for chunk in iter(lambda: response.read(1 << 20), b""):
                size += len(chunk)
                if size > MAX_DOWNLOAD_BYTES:
                    raise FetchError(f"cannot fetch {url}: larger than "
                                     f"{MAX_DOWNLOAD_BYTES} bytes")
                out.write(chunk)
    except OSError as exc:  # `URLError` and `TimeoutError` are OSErrors
        raise FetchError(f"cannot fetch {url}: {exc}") from exc


def from_archive(source: str | Path, skip_errors: bool = False) -> Collection:
    """Load a collection from a ZIP archive on disk or over HTTP(S).

    The only operation that may touch the network; 30 s timeout, no
    retries.  Every table is read before the extracted files are
    removed, so an error in a CSV body is a load error of its entry.
    """
    def load_with_rows(json_path: str) -> Entry:
        entry = load_entry(json_path)
        entry.table.row_count  # noqa: B018 - parse the cells while they exist
        return entry

    with tempfile.TemporaryDirectory(prefix="unitpack-archive-") as tmp:
        tmp_dir = Path(tmp)
        if isinstance(source, str) and source.startswith(("http://",
                                                          "https://")):
            archive_path = tmp_dir / "archive.zip"
            _fetch_to_file(source, archive_path)
        else:
            archive_path = Path(source)
            if not archive_path.is_file():
                raise FetchError(f"no such archive: {archive_path}")
        extract_dir = tmp_dir / "extracted"
        extract_dir.mkdir()
        try:
            with zipfile.ZipFile(archive_path) as archive:
                members = archive.infolist()
                for member in members:
                    if not _stays_inside(member.filename):
                        raise BadArchive(
                            f"archive member escapes extraction dir: "
                            f"{member.filename!r}")
                # `zipfile` stops each member at its declared `file_size`,
                # so the sum bounds what `extractall` writes.
                if len(members) > MAX_ARCHIVE_MEMBERS:
                    raise BadArchive(f"archive has {len(members)} members "
                                     f"(at most {MAX_ARCHIVE_MEMBERS})")
                size = sum(member.file_size for member in members)
                if size > MAX_EXTRACTED_BYTES:
                    raise BadArchive(f"archive unpacks to {size} bytes "
                                     f"(at most {MAX_EXTRACTED_BYTES})")
                archive.extractall(extract_dir)
        except zipfile.BadZipFile as exc:
            raise BadArchive(f"not a ZIP archive: {archive_path}") from exc
        return _load_directory(extract_dir, skip_errors, load_with_rows)


def get(c: Collection, identifier: str) -> Entry:
    """Identifier lookup; the key is lowercased before matching."""
    entry = c._by_id.get(identifier.lower())
    if entry is not None:
        return entry
    available = ""
    if len(c.entries) <= 20:
        available = f" (available: {', '.join(c.identifiers) or 'none'})"
    raise EntryNotFound(f"no entry {identifier!r}{available}")


# --- predicates -------------------------------------------------------------

_ORDERS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
           ">": operator.gt}
OPERATORS = ("==", "!=", *_ORDERS, "contains")


@dataclass(frozen=True)
class Clause:
    path: str
    op: str
    value: object  # scalar literal

    def __post_init__(self):
        if not isinstance(self.path, str):
            raise PredicateParseError(
                f"clause path must be text, not a {type(self.path).__name__}")
        if self.op not in OPERATORS:
            raise PredicateParseError(
                f"unknown operator {self.op!r} "
                f"(expected one of {', '.join(OPERATORS)})")
        if not is_scalar(self.value):
            raise PredicateParseError(
                f"clause value must be a scalar, not a "
                f"{type(self.value).__name__}")


_WORDS = {"true": True, "false": False, "null": None}


def _parse_literal(token: str):
    """A JSON word, or a number exactly where a CSV cell with the same
    text is one; the empty token stays text."""
    if token in _WORDS:
        return _WORDS[token]
    return _typed_cell(token) if token else token


def parse_clause(text: str) -> Clause:
    """Parse the textual ``path OP value`` form used by the CLI.  A value
    written with quotes or escapes is text; a bare one is a literal."""
    try:
        tokens = shlex.split(text)
    except ValueError as exc:
        raise PredicateParseError(f"bad predicate {text!r}: {exc}") from exc
    if len(tokens) != 3:
        raise PredicateParseError(
            f"bad predicate {text!r}: expected 'path OP value'")
    path, op, raw_value = tokens
    bare = text.split()[-1] == raw_value
    return Clause(path=path, op=op,
                  value=_parse_literal(raw_value) if bare else raw_value)


def _compare(op: str, node, value) -> bool:
    """The one rule by which a scalar node meets a literal: ``==`` is
    `enum`'s equality (`metadata._values_equal`) and ``!=`` its negation;
    an order holds only between two numbers, by value, or two texts, by
    code point.  A list, a map or an absent node meets nothing."""
    if not is_scalar(node):
        return False
    if op in ("==", "!="):
        return _values_equal(node, value) == (op == "==")
    if _is_number(node) and _is_number(value) or \
            isinstance(node, str) and isinstance(value, str):
        return _ORDERS[op](node, value)
    return False


def _clause_holds(entry: Entry, clause: Clause) -> bool:
    node = find_path(entry.metadata, clause.path)
    if clause.op != "contains":
        return _compare(clause.op, node, clause.value)
    if isinstance(node, list):
        return any(_compare("==", element, clause.value) for element in node)
    return isinstance(node, str) and canonical_scalar(clause.value) in node


def filter(c: Collection, clauses) -> Collection:  # noqa: A001 - spec name
    """Entries satisfying every clause; missing paths fail silently."""
    if isinstance(clauses, Clause):
        clauses = (clauses,)
    kept = tuple(e for e in c.entries
                 if all(_clause_holds(e, cl) for cl in clauses))
    return Collection(entries=kept)


# --- profiles & describe ----------------------------------------------------

# The key under which `describe` gives the entry count.
_COUNT_LABEL = "number of entries"


@dataclass(frozen=True)
class Profile:
    """A declarative domain view: labelled describe paths (the data
    equivalent of domain-specific entry classes)."""

    name: str
    describe_paths: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        pairs = self.describe_paths
        if not isinstance(pairs, tuple) or not all(
                isinstance(pair, tuple) and len(pair) == 2 for pair in pairs):
            raise ProfileInvalid(
                f"profile {self.name!r}: describe_paths must be a tuple of "
                f"(label, path) pairs")
        for text in (self.name, *(text for pair in pairs for text in pair)):
            if not isinstance(text, str):
                raise ProfileInvalid(
                    f"profile {self.name!r}: a name, label or path must be "
                    f"text, got {text!r}")
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ProfileInvalid(
                f"profile {self.name!r}: describe labels must be unique")
        if _COUNT_LABEL in labels:
            raise ProfileInvalid(
                f"profile {self.name!r}: the label {_COUNT_LABEL!r} is the "
                f"entry count's")


DEFAULT_PROFILE = Profile(
    name="default",
    describe_paths=(
        ("materials", "system.electrodes.working_electrode.material"),
        ("references", "source.citation_key"),
    ),
)


def load_profile(path: str | Path) -> Profile:
    """Read a profile from its YAML file format."""
    raw = _read_document(path, parse_yaml)
    if not isinstance(raw, dict):
        raise ProfileInvalid(f"profile {path} must be a map")
    describe = [] if raw.get("describe") is None else raw["describe"]
    if not isinstance(describe, list):
        raise ProfileInvalid(f"profile {path}: describe must be a list")
    pairs = []
    for item in describe:
        if not isinstance(item, dict) or "label" not in item \
                or "path" not in item:
            raise ProfileInvalid(
                f"profile {path}: each describe item needs 'label' and "
                f"'path'")
        pairs.append((item["label"], item["path"]))
    return Profile(name=raw.get("name", Path(path).stem),
                   describe_paths=tuple(pairs))


def describe(c: Collection, profile: Profile = DEFAULT_PROFILE) -> dict:
    """Summarize a collection: entry count plus, per profile path, the
    distinct scalar values found across entries.  A value is keyed by its
    rendering and its JSON type, which name it exactly, so the text
    ``"1"`` and the number ``1`` are two values; they sort by that key,
    whatever the order of the entries."""
    summary: dict = {_COUNT_LABEL: len(c)}
    for label, path in profile.describe_paths:
        distinct: dict[tuple[str, str], object] = {}
        for entry in c.entries:
            node = find_path(entry.metadata, path)
            if is_scalar(node):
                distinct[canonical_scalar(node), _type_name(node)] = node
        summary[label] = [distinct[k] for k in sorted(distinct)]
    return summary

