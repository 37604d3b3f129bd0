"""Single-resource data packages: a CSV table + unit-aware field schema
+ metadata document, addressable by a file-derived identifier.

The on-disk form is a ``<identifier>.json`` descriptor next to a
``<identifier>.csv``:

    {
      "resources": [
        {
          "name": "data", "type": "table", "path": "data.csv",
          "format": "csv", "mediatype": "text/csv",
          "schema": {"fields": [{"name": "t", "type": "number",
                                 "unit": "s", "description": "..."}, ...]},
          "metadata": { ... full metadata tree ... }
        }
      ]
    }
"""

from __future__ import annotations

import os
import re
import statistics
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

from . import units
from .errors import (
    DescriptorParseError,
    FieldHasNoUnit,
    FieldSpecInvalid,
    FieldSpecUnknownColumn,
    InvalidIdentifier,
    InvalidUnit,
    MissingCsv,
    NonNumericCell,
    OutOfRange,
    RefusedOverwrite,
    SchemaTableMismatch,
    UnitpackError,
    UnknownField,
)
from .metadata import (MetadataDoc, _read_document, _staged, dump_json,
                       get_path, parse_json)
from .tabular import (
    Table,
    _numeric_column,
    open_table,
    read_table,
    write_table,
)

FIELD_TYPES = ("number", "integer", "string")
DEFAULT_FIELDS_PATH = "figure_description.fields"


@dataclass(frozen=True)
class FieldSpec:
    """One column of a resource: name, type, optional unit and description.

    The unit is kept as its source string (e.g. ``mV``) so descriptors
    round-trip byte-for-byte; `parsed_unit` validates and interprets it.
    """

    name: str
    type: str = "number"
    unit: str | None = None
    description: str | None = None

    def __post_init__(self):
        if self.type not in FIELD_TYPES:
            raise FieldSpecInvalid(
                f"field {self.name!r}: bad type {self.type!r} "
                f"(expected one of {', '.join(FIELD_TYPES)})")
        if not isinstance(self.description, (str, type(None))):
            raise FieldSpecInvalid(
                f"field {self.name!r}: description must be text, got "
                f"{self.description!r}")
        if self.unit is not None:
            self.parsed_unit()

    def parsed_unit(self) -> units.UnitExpr:
        if self.unit is None:
            raise FieldHasNoUnit(f"field {self.name!r} has no unit")
        try:
            return units.parse_unit(self.unit)
        except UnitpackError as exc:
            raise InvalidUnit(
                f"field {self.name!r}: bad unit {self.unit!r}: {exc}") from exc

    @classmethod
    def from_descriptor(cls, item: dict) -> "FieldSpec":
        """Inverse of `to_descriptor`; a field with no type is a number."""
        return cls(name=item["name"], type=item.get("type", "number"),
                   unit=item.get("unit"), description=item.get("description"))

    def to_descriptor(self) -> dict:
        out: dict = {"name": self.name, "type": self.type}
        if self.unit is not None:
            out["unit"] = self.unit
        if self.description is not None:
            out["description"] = self.description
        return out


# Unicode's `Cc` characters: C0, DEL and C1.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def validate_identifier(identifier: str) -> str:
    if not identifier:
        raise InvalidIdentifier("identifier must be nonempty")
    if identifier != identifier.lower():
        raise InvalidIdentifier(f"identifier must be lowercase: {identifier!r}")
    if "." in identifier:
        raise InvalidIdentifier(
            f"identifier must not contain '.': {identifier!r}")
    if "/" in identifier or "\\" in identifier:
        raise InvalidIdentifier(
            f"identifier must not contain path separators: {identifier!r}")
    if "\0" in identifier:  # no file name can hold one
        raise InvalidIdentifier(
            f"identifier must not contain NUL: {identifier!r}")
    if identifier.splitlines() != [identifier]:  # `ls` prints one a line
        raise InvalidIdentifier(
            f"identifier must not contain a line break: {identifier!r}")
    if _CONTROL.search(identifier):  # a terminal runs what `ls` prints
        raise InvalidIdentifier(
            f"identifier must not contain a control character: "
            f"{identifier!r}")
    try:
        identifier.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as from a non-UTF-8 name
        raise InvalidIdentifier(
            f"identifier must be valid UTF-8 text: {identifier!r}") from None
    return identifier


def _stays_inside(rel_path: str) -> bool:
    """Whether `rel_path` names a place inside the directory it is taken
    relative to: it is not absolute and has no ".." segment, the Data
    Resource rule for a package's paths."""
    return not (rel_path.startswith("/") or ".." in rel_path.split("/"))


def identifier_from_path(path: str | Path) -> str:
    """Lowercased basename without its final extension."""
    name = Path(path).name
    stem = name.rsplit(".", 1)[0] if "." in name else name
    return validate_identifier(stem.lower())


@dataclass(frozen=True)
class Entry:
    """A single-resource data package."""

    identifier: str
    fields: tuple[FieldSpec, ...]
    table: Table
    metadata: MetadataDoc

    def __post_init__(self):
        validate_identifier(self.identifier)
        field_names = tuple(f.name for f in self.fields)
        if field_names != self.table.columns:
            raise SchemaTableMismatch(
                f"field schema {list(field_names)} does not match table "
                f"columns {list(self.table.columns)}")

    def field(self, name: str) -> FieldSpec:
        if name not in self.table._index:
            raise UnknownField(
                f"no field {name!r} in entry {self.identifier!r} "
                f"(fields: {', '.join(self.table.columns)})")
        return self.fields[self.table.column_index(name)]

    def __repr__(self) -> str:
        return f"Entry({self.identifier!r})"


def _specs_from_metadata(metadata: MetadataDoc, fields_path: str
                         ) -> dict[str, FieldSpec]:
    node = get_path(metadata, fields_path)
    if not isinstance(node, list):
        raise FieldSpecInvalid(
            f"metadata node at {fields_path!r} must be a sequence of field "
            f"specs")
    specs: dict[str, dict] = {}
    for item in node:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise FieldSpecInvalid(
                f"each field spec at {fields_path!r} must be a map with a "
                f"string 'name'")
        if item["name"] in specs:
            raise FieldSpecInvalid(
                f"duplicate field spec for column {item['name']!r}")
        specs[item["name"]] = item
    return specs


def build_entry_from_table(identifier: str, table: Table,
                           metadata: MetadataDoc,
                           fields_path: str = DEFAULT_FIELDS_PATH) -> Entry:
    """Assemble an Entry from an already-parsed table.

    Field order follows the CSV; a column without a declared type gets an
    inferred one (number iff every non-null cell is numeric), and columns
    without a spec in the metadata get no unit.  A column declared
    ``number`` or ``integer`` must hold only numbers, ints for
    ``integer``, and nulls: any other cell is a `NonNumericCell`, and the
    declared type is never rewritten.
    """
    specs = _specs_from_metadata(metadata, fields_path)
    unknown = [name for name in specs if name not in table._index]
    if unknown:
        raise FieldSpecUnknownColumn(
            f"field spec(s) name column(s) absent from the CSV: "
            f"{', '.join(map(repr, unknown))}")
    fields = []
    for column, cells in zip(table.columns, table._body()):
        item = specs.get(column, {})
        declared_type = item.get("type")
        if declared_type is None:
            try:
                _numeric_column(column, cells)
                declared_type = "number"
            except NonNumericCell:
                declared_type = "string"
        fields.append(FieldSpec.from_descriptor(
            {**item, "name": column, "type": declared_type}))
        if item.get("type") in ("number", "integer"):
            _numeric_column(column, cells, integer=declared_type == "integer")
    return Entry(identifier=identifier, fields=tuple(fields), table=table,
                 metadata=metadata)


def build_entry(csv_path: str | Path, metadata: MetadataDoc,
                fields_path: str = DEFAULT_FIELDS_PATH) -> Entry:
    """Build an Entry from a CSV file; identifier is the lowercased
    basename without the final extension."""
    table = read_table(csv_path)
    return build_entry_from_table(identifier_from_path(csv_path), table,
                                  metadata, fields_path)


def save_entry(entry: Entry, outdir: str | Path,
               overwrite: bool = False) -> tuple[Path, Path]:
    """Write ``<identifier>.json`` + ``<identifier>.csv`` into `outdir`.

    Each file is written to a temporary file in `outdir` and moved into
    place with `os.replace`, the CSV first and the descriptor last, so
    neither name ever holds a partly written file and a new descriptor
    only appears once its CSV is complete.  If the descriptor's move
    fails, the CSV name gets back what it held (the old CSV is
    hard-linked to a hidden backup name first), so the old pair stays.
    Metadata holding a NaN or an infinity is a `ValueError` from
    `dump_json`, raised before either file is written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    json_path = outdir / f"{entry.identifier}.json"
    csv_path = outdir / f"{entry.identifier}.csv"
    if not overwrite:
        for target in (json_path, csv_path):
            if target.exists():
                raise RefusedOverwrite(
                    f"refusing to overwrite {target} (pass overwrite=True)")
    descriptor = dump_json({
        "resources": [
            {
                "name": entry.identifier,
                "type": "table",
                "path": csv_path.name,
                "format": "csv",
                "mediatype": "text/csv",
                "schema": {"fields": [f.to_descriptor() for f in entry.fields]},
                "metadata": entry.metadata.root,
            }
        ]
    }, indent=2) + "\n"
    with (_staged(csv_path) as csv_temp, _staged(json_path) as json_temp,
          _staged(csv_path) as csv_backup):
        write_table(entry.table, csv_temp)
        with open(json_temp, "w", encoding="utf-8") as handle:
            handle.write(descriptor)
        try:
            os.link(csv_path, csv_backup)
        except FileNotFoundError:
            pass
        os.replace(csv_temp, csv_path)
        try:
            os.replace(json_temp, json_path)
        except BaseException:
            if os.path.exists(csv_backup):
                os.replace(csv_backup, csv_path)
            else:
                csv_path.unlink()
            raise
    return json_path, csv_path


def load_entry(json_path: str | Path) -> Entry:
    """Inverse of save_entry; re-parses unit strings.

    A descriptor that does not decode or parse, or repeats a map key, is
    a `DescriptorParseError`.  Only the CSV's header is read here, with
    `open_table`, so a missing CSV, an empty one, duplicate columns or a
    schema/column mismatch fail now, and errors in the rows on first use
    of the rows.  The descriptor, and the CSV's first block where it
    holds a plain header, are read with `os.read`, through no file object.
    """
    try:
        descriptor = _read_document(json_path, parse_json)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise DescriptorParseError(
            f"no such descriptor: {json_path}") from None
    except UnitpackError as exc:
        raise DescriptorParseError(f"bad JSON in {exc}") from exc

    resources = descriptor.get("resources") if isinstance(descriptor, dict) \
        else None
    if not isinstance(resources, list) or len(resources) != 1:
        raise DescriptorParseError(
            f"{json_path}: descriptor must contain exactly one resource")
    resource = resources[0]
    if not isinstance(resource, dict):
        raise DescriptorParseError(f"{json_path}: resource must be a map")
    for key in ("name", "path", "schema", "metadata"):
        if key not in resource:
            raise DescriptorParseError(
                f"{json_path}: resource lacks required key {key!r}")
    schema_fields = resource["schema"].get("fields") \
        if isinstance(resource["schema"], dict) else None
    if not isinstance(schema_fields, list):
        raise DescriptorParseError(
            f"{json_path}: resource schema lacks a 'fields' list")

    identifier = resource["name"]
    if not isinstance(identifier, str):
        raise DescriptorParseError(f"{json_path}: resource name must be a "
                                   f"string")
    rel_path = resource["path"]
    if not isinstance(rel_path, str) or not _stays_inside(rel_path):
        raise DescriptorParseError(
            f"{json_path}: resource path must be a relative path inside "
            f"the package, got {rel_path!r}")
    # Spelled as pathlib spells it; checked first as `open` blocks on a FIFO.
    parts = [part for part in rel_path.split("/") if part not in ("", ".")]
    csv_path = os.path.join(os.path.dirname(json_path), *parts) or os.curdir
    if not os.path.isfile(csv_path):
        raise MissingCsv(f"{json_path}: resource CSV not found: {csv_path}")
    table = open_table(csv_path)

    fields = []
    for item in schema_fields:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise DescriptorParseError(
                f"{json_path}: each schema field must be a map with a name")
        fields.append(FieldSpec.from_descriptor(item))
    return Entry(identifier=identifier, fields=tuple(fields), table=table,
                 metadata=MetadataDoc(root=resource["metadata"]))


def rescale(entry: Entry, targets: dict[str, str]) -> Entry:
    """Return a new Entry with the targeted fields converted to new units.

    Each conversion factor is exact rational; it is applied to floating
    cells as (cell × numerator) / denominator, which keeps decimal
    factors like 10⁻³ within one ulp.  A field declared `integer` whose
    factor is not a whole number is written as `number`.
    """
    if not targets:
        return entry
    factors = {}
    new_fields = list(entry.fields)
    for name, unit_text in targets.items():
        spec = entry.field(name)
        index = entry.table.column_index(name)
        old_unit = spec.parsed_unit()
        try:
            new_unit = units.parse_unit(unit_text)
        except UnitpackError as exc:
            raise InvalidUnit(f"bad target unit {unit_text!r}: {exc}") from exc
        factors[index] = factor = units.conversion_factor(old_unit, new_unit)
        # An integer times a fraction is a number: 5 mV is 0.005 V.
        fractional = spec.type == "integer" and factor.denominator != 1
        new_fields[index] = replace(spec, unit=unit_text, type=(
            "number" if fractional else spec.type))

    columns = list(entry.table._body())
    for index, factor in factors.items():
        cells = _numeric_column(new_fields[index].name, columns[index])
        columns[index] = tuple(None if cell is None
                               else units.apply_factor(cell, factor)
                               for cell in cells)
    new_table = Table(entry.table.columns, _cells=tuple(columns))
    return Entry(identifier=entry.identifier, fields=tuple(new_fields),
                 table=new_table, metadata=entry.metadata)


def _mean(values) -> float:
    """`statistics.fmean`, or the exact `statistics.mean` where fmean's
    float sum overflows, such as two cells of 1e308."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        return statistics.mean(values)


_AGGREGATES = {"mean": _mean, "min": min, "max": max,
               "first": itemgetter(0)}
AGGREGATES = tuple(_AGGREGATES)


def field_quantity(entry: Entry, field_name: str,
                   aggregate: str = "mean") -> units.Quantity:
    """Aggregate a unit-carrying column into a Quantity; an aggregate
    beyond the float range (an int cell of 10**400) is an `OutOfRange`."""
    if aggregate not in _AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r} "
                         f"(expected one of {', '.join(AGGREGATES)})")
    unit = entry.field(field_name).parsed_unit()
    values = [cell for cell in _numeric_column(
        field_name, entry.table.column_values(field_name))
        if cell is not None]
    if not values:
        raise NonNumericCell(f"field {field_name!r} has no numeric cells")
    try:
        magnitude = float(_AGGREGATES[aggregate](values))
    except OverflowError:
        raise OutOfRange(f"the {aggregate} of field {field_name!r} is beyond "
                         f"the float range") from None
    return units.Quantity(magnitude, unit)
