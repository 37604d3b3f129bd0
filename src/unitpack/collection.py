"""Collections of entries: load from a directory or ZIP, look up by
identifier, filter by metadata predicates, and summarize via profiles."""

from __future__ import annotations

import logging
import shlex
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .datapackage import Entry, load_entry
from .errors import (
    AmbiguousKey,
    BadArchive,
    CollectionLoadError,
    DirectoryNotFound,
    DuplicateIdentifier,
    EntryNotFound,
    FetchError,
    PathNotFound,
    PredicateParseError,
    UnitpackError,
)
from .metadata import canonical_scalar, get_path, is_scalar
from .tabular import _is_number

log = logging.getLogger("unitpack.collection")

FETCH_TIMEOUT_S = 30


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
    entry; its `UnitpackError`s are per-file load errors."""
    if not directory.is_dir():
        raise DirectoryNotFound(f"not a directory: {directory}")
    entries: list[Entry] = []
    sources: dict[str, Path] = {}
    failures: list[tuple[str, str]] = []
    for json_path in sorted(directory.rglob("*.json"), key=lambda p: str(p)):
        if not json_path.is_file():
            continue
        try:
            entry = load(json_path)
        except UnitpackError as exc:
            failures.append((str(json_path), str(exc)))
            continue
        if entry.identifier in sources:
            raise DuplicateIdentifier(
                f"identifier {entry.identifier!r} produced by both "
                f"{sources[entry.identifier]} and {json_path}")
        sources[entry.identifier] = json_path
        entries.append(entry)
    if failures:
        if not skip_errors:
            details = "; ".join(f"{p}: {m}" for p, m in failures)
            raise CollectionLoadError(
                f"{len(failures)} descriptor(s) failed to load: {details}",
                failures=failures)
        for path, message in failures:
            log.warning("skipping %s: %s", path, message)
    return Collection(entries=tuple(entries))


def _fetch_to_file(url: str, target: Path) -> None:
    import urllib.error  # imported here: no other command pays for it
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            target.write_bytes(response.read())
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise FetchError(f"cannot fetch {url}: {exc}") from exc


def from_archive(source: str | Path, skip_errors: bool = False) -> Collection:
    """Load a collection from a ZIP archive on disk or over HTTP(S).

    The only operation that may touch the network; 30 s timeout, no
    retries.  Every table is read before the extracted files are
    removed, so an error in a CSV body is a load error of its entry.
    """
    def load_with_rows(json_path: Path) -> Entry:
        entry = load_entry(json_path)
        entry.table.rows  # noqa: B018 - parse the rows while they exist
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
                for member in archive.namelist():
                    member_path = Path(member)
                    if member_path.is_absolute() or ".." in member_path.parts:
                        raise BadArchive(
                            f"archive member escapes extraction dir: "
                            f"{member!r}")
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

OPERATORS = ("==", "!=", "<=", ">=", "<", ">", "contains")


@dataclass(frozen=True)
class Clause:
    path: str
    op: str
    value: object  # scalar literal

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise PredicateParseError(
                f"unknown operator {self.op!r} "
                f"(expected one of {', '.join(OPERATORS)})")


def _parse_literal(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if token in ("true", "false"):
        return token == "true"
    if token == "null":
        return None
    return token


def parse_clause(text: str) -> Clause:
    """Parse the textual ``path OP value`` form used by the CLI."""
    try:
        tokens = shlex.split(text)
    except ValueError as exc:
        raise PredicateParseError(f"bad predicate {text!r}: {exc}") from exc
    if len(tokens) != 3:
        raise PredicateParseError(
            f"bad predicate {text!r}: expected 'path OP value'")
    path, op, raw_value = tokens
    return Clause(path=path, op=op, value=_parse_literal(raw_value))


def _clause_holds(entry: Entry, clause: Clause) -> bool:
    try:
        node = get_path(entry.metadata, clause.path)
    except (PathNotFound, AmbiguousKey):
        return False
    if clause.op == "contains":
        if isinstance(node, list):
            wanted = canonical_scalar(clause.value)
            return any(is_scalar(el) and canonical_scalar(el) == wanted
                       for el in node)
        if isinstance(node, str):
            return str(clause.value) in node
        return False
    if not is_scalar(node):
        return False
    if _is_number(node) and _is_number(clause.value):
        left, right = node, clause.value
    else:
        left, right = canonical_scalar(node), canonical_scalar(clause.value)
        if not isinstance(left, str) or not isinstance(right, str):
            return False
    if clause.op == "==":
        return left == right
    if clause.op == "!=":
        return left != right
    if clause.op == "<":
        return left < right
    if clause.op == "<=":
        return left <= right
    if clause.op == ">":
        return left > right
    return left >= right


def filter(c: Collection, clauses) -> Collection:  # noqa: A001 - spec name
    """Entries satisfying every clause; missing paths fail silently."""
    if isinstance(clauses, Clause):
        clauses = (clauses,)
    kept = tuple(e for e in c.entries
                 if all(_clause_holds(e, cl) for cl in clauses))
    return Collection(entries=kept)


# --- profiles & describe ----------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A declarative domain view: labelled describe paths + accessor
    shortcuts (the data equivalent of domain-specific entry classes)."""

    name: str
    describe_paths: tuple[tuple[str, str], ...] = ()
    key_accessors: tuple[str, ...] = ()

    def __post_init__(self):
        labels = [label for label, _ in self.describe_paths]
        if len(set(labels)) != len(labels):
            raise UnitpackError(
                f"profile {self.name!r}: describe labels must be unique",
                code="PROFILE_INVALID")


DEFAULT_PROFILE = Profile(
    name="default",
    describe_paths=(
        ("materials", "system.electrodes.working_electrode.material"),
        ("references", "source.citation_key"),
    ),
)


def load_profile(path: str | Path) -> Profile:
    """Read a profile from its YAML file format."""
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(raw, dict):
        raise UnitpackError(f"profile {path} must be a map",
                            code="PROFILE_INVALID")
    describe = raw.get("describe") or []
    pairs = []
    for item in describe:
        if not isinstance(item, dict) or "label" not in item \
                or "path" not in item:
            raise UnitpackError(
                f"profile {path}: each describe item needs 'label' and "
                f"'path'", code="PROFILE_INVALID")
        pairs.append((str(item["label"]), str(item["path"])))
    accessors = tuple(str(a) for a in (raw.get("accessors") or []))
    return Profile(name=str(raw.get("name", Path(path).stem)),
                   describe_paths=tuple(pairs), key_accessors=accessors)


def describe(c: Collection, profile: Profile = DEFAULT_PROFILE) -> dict:
    """Summarize a collection: entry count plus, per profile path, the
    sorted set of distinct scalar values found across entries."""
    summary: dict = {"number of entries": len(c)}
    for label, path in profile.describe_paths:
        distinct: dict[str, object] = {}
        for entry in c.entries:
            try:
                node = get_path(entry.metadata, path)
            except (PathNotFound, AmbiguousKey):
                continue
            if is_scalar(node):
                distinct[canonical_scalar(node)] = node
        summary[label] = [distinct[k] for k in sorted(distinct)]
    return summary


def accessor_values(profile: Profile, entry: Entry) -> dict[str, object]:
    """Resolve a profile's accessor shortcuts against one entry, keyed by
    the final path segment; unresolvable accessors are omitted."""
    out: dict[str, object] = {}
    for path in profile.key_accessors:
        try:
            out[path.rsplit(".", 1)[-1]] = get_path(entry.metadata, path)
        except (PathNotFound, AmbiguousKey):
            continue
    return out
