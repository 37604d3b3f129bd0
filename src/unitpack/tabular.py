"""CSV tables with a single header row, plus loader specs for wild files.

Cells are typed on read: a cell is numeric iff it matches an optional
sign, decimal digits with an optional fractional part and an optional
exponent.  Sentinels like ``NaN`` or ``inf`` stay strings so they cannot
silently poison statistics.  Empty cells become null.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import (
    DuplicateColumnName,
    HeaderRowOutOfRange,
    LoaderSpecError,
    MetadataParseError,
    RaggedRow,
    RenameSourceMissing,
    SchemaTableMismatch,
    UnitpackError,
)

Cell = None | int | float | str

_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True, eq=False, init=False)
class Table:
    """Immutable column-named table. All rows have one cell per column.

    A table from `open_table` knows its columns at once and has its rows
    parsed by `read_table` the first time they are used.  Either way,
    tables with the same columns and cells compare equal.
    """

    columns: tuple[str, ...]
    _rows: tuple[tuple[Cell, ...], ...] | None
    _path: Path | None = field(default=None, repr=False)

    def __init__(self, columns: tuple[str, ...],
                 rows: tuple[tuple[Cell, ...], ...] | None,
                 _path: Path | None = None):
        seen = set()
        for name in columns:
            if name in seen:
                raise DuplicateColumnName(
                    f"duplicate column name {name!r}: fields can not be "
                    f"unambiguously addressed")
            seen.add(name)
        for index, row in enumerate(rows or ()):
            if len(row) != len(columns):
                raise RaggedRow(
                    f"row {index} has {len(row)} cells, expected "
                    f"{len(columns)}", row_index=index)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_path", _path)

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        if self._rows is None:
            try:
                body = read_table(self._path)
            except RaggedRow as exc:
                raise RaggedRow(f"{self._path}: {exc}",
                                row_index=exc.row_index) from exc
            if body.columns != self.columns:
                raise SchemaTableMismatch(
                    f"{self._path}: header changed since it was read: "
                    f"{list(self.columns)} is now {list(body.columns)}")
            object.__setattr__(self, "_rows", body.rows)
            object.__setattr__(self, "_path", None)
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.columns, self.rows))

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(name) from None

    def column_values(self, name: str) -> tuple[Cell, ...]:
        i = self.column_index(name)
        return tuple(row[i] for row in self.rows)


def _typed_cell(text: str, decimal_separator: str = ".") -> Cell:
    if text == "":
        return None
    candidate = text
    if decimal_separator != ".":
        candidate = text.replace(decimal_separator, ".")
    if _NUMBER_RE.match(candidate):
        if "." in candidate or "e" in candidate or "E" in candidate:
            return float(candidate)
        return int(candidate)
    return text


def _is_number(cell) -> bool:
    """True for an int or float cell; a bool is not a number here."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def render_cell(cell: Cell) -> str:
    """Inverse of cell typing; floats use shortest round-trip rendering."""
    if cell is None:
        return ""
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _header(rows_iter) -> list[str]:
    try:
        return next(rows_iter)
    except StopIteration:
        raise UnitpackError("empty CSV: no header line",
                            code="EMPTY_CSV") from None


def _table_from_csv_rows(raw_rows, decimal_separator: str = ".") -> Table:
    rows_iter = iter(raw_rows)
    header = _header(rows_iter)
    rows = []
    for index, raw in enumerate(rows_iter):
        if not raw:  # blank line
            continue
        if len(raw) != len(header):
            raise RaggedRow(
                f"row {index} has {len(raw)} cells, expected {len(header)}",
                row_index=index)
        rows.append(tuple(_typed_cell(c, decimal_separator) for c in raw))
    return Table(columns=tuple(header), rows=tuple(rows))


def read_table(path: str | Path) -> Table:
    """Parse an RFC-4180 CSV whose first line is the header."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return _table_from_csv_rows(csv.reader(handle))


def open_table(path: str | Path) -> Table:
    """Read only the header of a CSV now; `read_table` parses the rows
    when they are first used, so errors in them surface then."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        columns = tuple(_header(csv.reader(handle)))
    return Table(columns=columns, rows=None, _path=Path(path))


def write_table(table: Table, path: str | Path) -> None:
    """Emit header + rows; fields are quoted only when needed."""
    rows = table.rows  # before opening: a lazy table may read from `path`
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n",
                            quoting=csv.QUOTE_MINIMAL)
        writer.writerow(table.columns)
        for row in rows:
            writer.writerow([render_cell(cell) for cell in row])


@dataclass(frozen=True)
class LoaderSpec:
    """Declarative description of a nonstandard instrument file layout."""

    delimiter: str = ","
    decimal_separator: str = "."
    header_row: int = 0
    skip_footer: int = 0
    rename: dict[str, str] = field(default_factory=dict)
    comment_prefix: str | None = None

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise LoaderSpecError(
                f"delimiter must be a single character, got "
                f"{self.delimiter!r}")
        if self.decimal_separator not in (".", ","):
            raise LoaderSpecError(
                f"decimal_separator must be '.' or ',', got "
                f"{self.decimal_separator!r}")
        if self.decimal_separator == "," and self.delimiter == ",":
            raise LoaderSpecError(
                "decimal_separator ',' conflicts with delimiter ','")
        if self.header_row < 0:
            raise LoaderSpecError("header_row must be >= 0")
        if self.skip_footer < 0:
            raise LoaderSpecError("skip_footer must be >= 0")
        targets = list(self.rename.values())
        if len(set(targets)) != len(targets):
            raise LoaderSpecError(
                "rename targets must be unique (two source columns map to "
                "the same standard name)")
        if self.comment_prefix == "":
            raise LoaderSpecError("comment_prefix must be non-empty if set")


_LOADER_KEYS = {"delimiter", "decimal_separator", "header_row", "skip_footer",
                "rename", "comment_prefix"}


def load_loader_spec(path: str | Path) -> LoaderSpec:
    """Read a LoaderSpec from its YAML file format."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8-sig"))
    except yaml.YAMLError as exc:
        raise MetadataParseError(f"bad loader spec {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise LoaderSpecError(f"loader spec {path} must be a map")
    unknown = set(raw) - _LOADER_KEYS
    if unknown:
        raise LoaderSpecError(
            f"unknown loader spec keys: {', '.join(sorted(unknown))}")
    if "rename" in raw and raw["rename"] is not None:
        rename = raw["rename"]
        if not isinstance(rename, dict) or \
                not all(isinstance(k, str) and isinstance(v, str)
                        for k, v in rename.items()):
            raise LoaderSpecError("rename must map strings to strings")
    return LoaderSpec(
        delimiter=raw.get("delimiter", ","),
        decimal_separator=raw.get("decimal_separator", "."),
        header_row=int(raw.get("header_row", 0)),
        skip_footer=int(raw.get("skip_footer", 0)),
        rename=dict(raw.get("rename") or {}),
        comment_prefix=raw.get("comment_prefix"),
    )


def apply_loader(path: str | Path, spec: LoaderSpec) -> Table:
    """Standardize a nonstandard file into a Table.

    Comment lines are dropped, then `skip_footer` trailing lines, then
    the line at `header_row` becomes the header and everything above it
    is discarded.  Line accounting is physical: a quoted field spanning
    lines counts as the lines it occupies.  Cell values are never
    altered, only renamed and retyped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        lines = list(handle)  # split where csv splits, as in read_table
    if spec.comment_prefix is not None:
        lines = [l for l in lines if not l.startswith(spec.comment_prefix)]
    if spec.skip_footer:
        lines = lines[:-spec.skip_footer]
    if spec.header_row >= len(lines):
        raise HeaderRowOutOfRange(
            f"header_row {spec.header_row} out of range: only {len(lines)} "
            f"lines remain after comment/footer removal")
    lines = lines[spec.header_row:]
    raw_rows = csv.reader(lines, delimiter=spec.delimiter)
    table = _table_from_csv_rows(raw_rows, spec.decimal_separator)
    if not spec.rename:
        return table
    missing = [k for k in spec.rename if k not in table.columns]
    if missing:
        raise RenameSourceMissing(
            f"rename source column(s) not present: "
            f"{', '.join(map(repr, missing))}")
    renamed = tuple(spec.rename.get(c, c) for c in table.columns)
    return Table(columns=renamed, rows=table.rows)
