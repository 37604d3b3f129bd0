"""CSV tables with a single header row, plus loader specs for wild files.

Cells are typed on read: a cell is numeric iff it matches an optional
sign, decimal digits with an optional fractional part and an optional
exponent.  Sentinels like ``NaN`` or ``inf`` stay strings so they cannot
silently poison statistics.  So does a numeric cell whose number does
not fit: a float that overflows (``1e999``, ``-1e400``), which would
otherwise be written back as ``inf``, and an int of more than 4300
digits, which ``int`` refuses to read from text.  Empty cells become
null.  Typing goes a column at a time: a column whose cells are all
ints, or all floats, is recognised and converted in one step, and any
other column is typed cell by cell; either way each cell gets the type
the per-cell rule gives it.  The rule says only "a digit", never which,
so a column is recognised by its cells' distinct shapes (the UTF-8
bytes with each ASCII digit written as 0), and a long column of alike
numbers has few.

`read_table` splits a file whose text `csv` would split only at line
ends ("\\n" or "\\r\\n") and "," with `str.split`, to the table `csv`
gives (`_split_table` says which text that is); other files, pipes and
`apply_loader` use `csv`.  Its checks, a blank line among them, run
once per distinct line shape, and each column's shapes are cut from the
distinct row shapes.  `open_table` splits a header line that holds no
`"`, "\\r" or NUL itself, from the file's first block read with
`os.read`; `csv` reads any other header.
"""

from __future__ import annotations

import csv
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

from .errors import (
    CsvParseError,
    DuplicateColumnName,
    EmptyCsv,
    HeaderRowOutOfRange,
    LoaderSpecError,
    NonNumericCell,
    RaggedRow,
    RenameSourceMissing,
    SchemaTableMismatch,
)
from .metadata import _read_bytes, _read_document, parse_yaml
from .units import _FLOAT, _INT

Cell = None | int | float | str

# The size of the first chunk that `open` reads and decodes in text mode.
_FIRST_BLOCK = 8192

# One cell under `.match`; the int group picks `int`.  `$` also matches
# before a trailing newline, so "1\n" is the int 1.
_CELL_RE = re.compile(rf"(?:({_INT})|{_FLOAT})$")
# A cell's shape under `fullmatch`: the grammar only says `\d`, so which
# ASCII digits a cell holds never changes whether it matches.  Shapes
# are UTF-8 bytes, which `translate` maps at C speed whatever the text
# holds; a bytes `\d` is ASCII only, so a shape that matches is all
# ASCII and matches the text pattern too.
_FLOAT_RE, _INT_RE = re.compile(_FLOAT.encode()), re.compile(_INT.encode())
_TO_SHAPE = bytes.maketrans(b"123456789", b"0" * 9)


@dataclass(frozen=True, eq=False, init=False)
class Table:
    """Immutable column-named table. All rows have one cell per column.

    Cells are kept a column at a time; `rows` is rebuilt from them on each
    use, so a table with no columns has no rows.  A table from `open_table`
    knows its columns at once and reads its cells on first use.  Tables
    with the same columns and cells compare equal.  One name → position
    map, made with the table by its duplicate-name check, finds a column
    by name, so work on a table is linear in its rows and columns.
    """

    columns: tuple[str, ...]
    _cells: tuple[tuple[Cell, ...], ...] | str
    _index: dict[str, int] = field(repr=False)

    def __init__(self, columns: tuple[str, ...],
                 rows: tuple[tuple[Cell, ...], ...] = (),
                 _cells: tuple[tuple[Cell, ...], ...] | str = ()):
        positions = {}
        for position, name in enumerate(columns):
            if positions.setdefault(name, position) != position:
                raise DuplicateColumnName(
                    f"duplicate column name {name!r}: fields can not be "
                    f"unambiguously addressed")
        for index, row in enumerate(rows):
            if len(row) != len(columns):
                raise RaggedRow(f"row {index} has {len(row)} cells, expected "
                                f"{len(columns)}", row_index=index)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_index", positions)
        object.__setattr__(self, "_cells", _cells or tuple(zip(*rows))
                           or ((),) * len(columns))

    def _body(self) -> tuple[tuple[Cell, ...], ...]:
        """The cells, one tuple per column; a lazy table reads them now."""
        if isinstance(self._cells, str):  # the CSV's path
            body = read_table(self._cells)
            if body.columns != self.columns:
                raise SchemaTableMismatch(
                    f"{self._cells}: header changed since it was read: "
                    f"{list(self.columns)} is now {list(body.columns)}")
            object.__setattr__(self, "_cells", body._cells)
        return self._cells

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(zip(*self._body()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self._body() == other._body()

    def __hash__(self) -> int:
        return hash((self.columns, self._body()))

    @property
    def row_count(self) -> int:
        cells = self._body()
        return len(cells[0]) if cells else 0

    def column_index(self, name: str) -> int:
        return self._index[name]

    def column_values(self, name: str) -> tuple[Cell, ...]:
        return self._body()[self.column_index(name)]


def _typed_cell(text: str, decimal_separator: str = ".") -> Cell:
    if text == "":
        return None
    candidate = text
    if decimal_separator != ".":
        candidate = text.replace(decimal_separator, ".")
    match = _CELL_RE.match(candidate)
    if match is None:
        return text
    if match[1]:
        try:
            return int(candidate)
        except ValueError:  # more digits than `int` reads
            return text
    number = float(candidate)
    return number if math.isfinite(number) else text


def _typed_column(cells, decimal_separator: str = ".",
                  shapes=None) -> tuple[Cell, ...]:
    """`_typed_cell` of each cell, in one step for a column of all ints or
    all floats.  `shapes` is the set of the cells' distinct shapes, found
    here when not given; each is matched once.  A shape holding a digit
    beyond ASCII, an empty cell or a cell holding a newline sends the
    column cell by cell, which keeps the edges of `_CELL_RE` (its `\\d`
    takes any digit, and its `$` also matches before a trailing
    newline), and so does a cell whose number does not fit."""
    numbers = cells
    if decimal_separator != ".":
        numbers = [cell.replace(decimal_separator, ".") for cell in cells]
    if shapes is None:
        found = "\n".join(numbers).encode().translate(_TO_SHAPE).split(
            b"\n")
        # A cell holding a newline gets a shape no number has.
        shapes = set(found) if len(found) == len(cells) else {b"\n"}
    if all(map(_FLOAT_RE.fullmatch, shapes)):
        floats = tuple(map(float, numbers))
        # A finite sum means no cell overflowed; any other sum (an
        # overflow, or finite cells summing past the float range)
        # leaves it to the per-cell rule.
        if math.isfinite(sum(floats)):
            return floats
    elif all(map(_INT_RE.fullmatch, shapes)):
        try:
            return tuple(map(int, numbers))
        except ValueError:  # a cell has more digits than `int` reads
            pass
    return tuple(_typed_cell(cell, decimal_separator) for cell in cells)


def _is_number(cell) -> bool:
    """True for an int or float cell; a bool is not a number here."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _plain_numbers(cells) -> bool:
    """True if every cell is exactly an int or a float, checked over the
    column's types at once.  False decides nothing: a column with a null,
    a bool or a subclass of int or float needs `_is_number` per cell."""
    return set(map(type, cells)) <= {int, float}


def _numeric_column(name: str, cells, integer: bool = False):
    """`cells`, once each is null or a number, an int if `integer`;
    otherwise `NonNumericCell` names the first that is not, as a cell of
    field `name`."""
    kinds, kind = ((int,), "integer") if integer else ((int, float), "numeric")
    if not set(map(type, cells)) <= set(kinds):
        for cell in cells:
            if cell is not None and not (isinstance(cell, kinds)
                                         and not isinstance(cell, bool)):
                raise NonNumericCell(
                    f"field {name!r} holds non-{kind} cell {cell!r}")
    return cells


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
        raise EmptyCsv("empty CSV: no header line") from None


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
        rows.append(raw)
    return Table(tuple(header), _cells=tuple(
        _typed_column(cells, decimal_separator) for cells in zip(*rows)))


@contextmanager
def _csv_source(path: str | Path):
    """`path` open as UTF-8 text (a BOM is allowed); bytes that do not
    decode or a `csv` parser error inside the block are a `CsvParseError`
    naming the path, and a `RaggedRow` gets the path in front.  A decoding
    error's position counts from the start of the decoder's current
    chunk, not of the file, so it is left out."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text ({exc.reason})") \
            from exc
    except csv.Error as exc:
        raise CsvParseError(f"{path}: {exc}") from exc
    except RaggedRow as exc:
        raise RaggedRow(f"{path}: {exc}", row_index=exc.row_index) from exc


def _split_table(handle) -> Table | None:
    """The table in `handle`'s text, split with `str.split`, if that text
    has no `"`, NUL, "\\r" but in "\\r\\n", blank line or line of more
    UTF-8 bytes than `csv.field_size_limit()`, and the header's comma
    count on every line: `csv` would split it only at line ends and ",",
    to the same table.  Else None.

    The text is shaped in one pass, the line checks run once per distinct
    line shape, and each column's distinct shapes are cut from the
    distinct row shapes."""
    text = handle.read()
    if "\r" in text:  # csv ends a line at "\r\n" as at "\n"
        text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    text = text.removesuffix("\n")
    # Not `splitlines()`: it also splits at "\x0c", "\x85" and others.
    shapes = text.encode().translate(_TO_SHAPE).split(b"\n")
    header = shapes[0]
    rows = set(islice(shapes, 1, None))
    del shapes  # before the cells are split, to keep the peak low
    distinct = rows | {header}
    if (b"" in distinct  # a blank line
            or max(map(len, distinct)) > csv.field_size_limit()
            or len(set(map(bytes.count, distinct, repeat(b",")))) != 1):
        return None
    width = header.count(b",") + 1
    row_cells = b",".join(rows).split(b",")  # row shape after row shape
    column_shapes = [set(row_cells[i::width]) for i in range(width)]
    del rows, distinct, row_cells
    text = text.replace("\n", ",")
    cells = text.split(",")  # row after row
    del text
    return Table(tuple(cells[:width]), _cells=tuple(
        _typed_column(cells[width + i::width], shapes=shapes)
        for i, shapes in enumerate(column_shapes)))


def read_table(path: str | Path) -> Table:
    """Parse an RFC-4180 CSV whose first line is the header.

    A file that `_split_table` can split is read so.  `csv` reads any
    other file again from its start, and a pipe, as it streams, so every
    parse error and its row index are the ones `csv` gives."""
    with _csv_source(path) as handle:
        if handle.seekable():
            with suppress(UnicodeDecodeError):  # an earlier row's error wins
                if (table := _split_table(handle)) is not None:
                    return table
            handle.seek(0)
        return _table_from_csv_rows(csv.reader(handle))


def open_table(path: str | Path) -> Table:
    """Read only the header of a CSV now; `read_table` parses the rows
    when they are first used, so errors in them surface then.  `path`
    names a regular file, as it is read again then.

    The header is split at "," from the file's first block, the bytes
    `open` decodes first, when the block decodes and its first line is
    one `csv` would split only at ",": it is not empty, ends in "\\n" and
    holds no `"`, "\\r", NUL or more characters than
    `csv.field_size_limit()`.  `csv` reads the header of any other file,
    so every error is the one it gives."""
    try:
        text = _read_bytes(path, _FIRST_BLOCK).decode("utf-8-sig")
    except UnicodeDecodeError:  # `csv` gives the error, if any
        text = ""
    line, end, _ = text.partition("\n")
    if (end and line and '"' not in line and "\r" not in line
            and "\0" not in line and len(line) <= csv.field_size_limit()):
        columns = tuple(line.split(","))
    else:
        with _csv_source(path) as handle:
            columns = tuple(_header(csv.reader(handle)))
    return Table(columns, _cells=os.fspath(path))


def write_table(table: Table, path: str | Path) -> None:
    """Emit header + rows; fields are quoted only when needed.  `csv`
    renders each cell as `render_cell` does: null as empty, a float in
    its shortest round-trip form."""
    cells = table._body()  # before opening: it may read `path`
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n",
                            quoting=csv.QUOTE_MINIMAL)
        writer.writerow(table.columns)
        writer.writerows(zip(*cells))


# Each loader spec key and the type of its value.  Only
# `comment_prefix` may be None, its default.
_LOADER_TYPES = {"delimiter": str, "decimal_separator": str,
                 "header_row": int, "skip_footer": int, "rename": dict,
                 "comment_prefix": str}


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
        for key, kind in _LOADER_TYPES.items():
            value = getattr(self, key)
            if key == "comment_prefix" and value is None:
                continue
            if not isinstance(value, kind) or isinstance(value, bool):
                raise LoaderSpecError(
                    f"{key} must be of type {kind.__name__}, got {value!r}")
        if not all(isinstance(k, str) and isinstance(v, str)
                   for k, v in self.rename.items()):
            raise LoaderSpecError("rename must map strings to strings")
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


def load_loader_spec(path: str | Path) -> LoaderSpec:
    """Read a LoaderSpec from its YAML file format."""
    raw = _read_document(path, parse_yaml)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise LoaderSpecError(f"loader spec {path} must be a map")
    unknown = raw.keys() - _LOADER_TYPES
    if unknown:
        raise LoaderSpecError(
            f"unknown loader spec keys: {', '.join(sorted(unknown))}")
    # A null value means the key is absent, so the default applies.
    return LoaderSpec(**{key: value for key, value in raw.items()
                         if value is not None})


def apply_loader(path: str | Path, spec: LoaderSpec) -> Table:
    """Standardize a nonstandard file into a Table.

    Comment lines are dropped, then `skip_footer` trailing lines, then
    the line at `header_row` becomes the header and everything above it
    is discarded.  Line accounting is physical: a quoted field spanning
    lines counts as the lines it occupies.  Cell values are never
    altered, only renamed and retyped.
    """
    with _csv_source(path) as handle:
        lines = list(handle)  # ends at "\n", "\r" or "\r\n", as csv records do
        if spec.comment_prefix is not None:
            lines = [l for l in lines
                     if not l.startswith(spec.comment_prefix)]
        if spec.skip_footer:
            lines = lines[:-spec.skip_footer]
        if spec.header_row >= len(lines):
            raise HeaderRowOutOfRange(
                f"header_row {spec.header_row} out of range: only "
                f"{len(lines)} lines remain after comment/footer removal")
        raw_rows = csv.reader(lines[spec.header_row:],
                              delimiter=spec.delimiter)
        table = _table_from_csv_rows(raw_rows, spec.decimal_separator)
    missing = [k for k in spec.rename if k not in table._index]
    if missing:
        raise RenameSourceMissing(
            f"rename source column(s) not present: "
            f"{', '.join(map(repr, missing))}")
    renamed = tuple(spec.rename.get(c, c) for c in table.columns)
    return Table(renamed, _cells=table._cells)
