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

import json
import os
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import units
from .errors import (
    DescriptorParseError,
    FieldHasNoUnit,
    FieldSpecUnknownColumn,
    InvalidIdentifier,
    InvalidUnit,
    MissingCsv,
    NonNumericCell,
    RefusedOverwrite,
    SchemaTableMismatch,
    UnitpackError,
    UnknownField,
)
from .metadata import MetadataDoc, get_path
from .tabular import (
    Table,
    _is_number,
    _plain_numbers,
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
            raise UnitpackError(
                f"field {self.name!r}: bad type {self.type!r} "
                f"(expected one of {', '.join(FIELD_TYPES)})",
                code="FIELD_SPEC_INVALID")
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

    def to_descriptor(self) -> dict:
        out: dict = {"name": self.name, "type": self.type}
        if self.unit is not None:
            out["unit"] = self.unit
        if self.description is not None:
            out["description"] = self.description
        return out


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
    return identifier


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
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise UnknownField(
            f"no field {name!r} in entry {self.identifier!r} "
            f"(fields: {', '.join(f.name for f in self.fields)})")

    def __repr__(self) -> str:
        return f"Entry({self.identifier!r})"


def _specs_from_metadata(metadata: MetadataDoc, fields_path: str
                         ) -> dict[str, FieldSpec]:
    node = get_path(metadata, fields_path)
    if not isinstance(node, list):
        raise UnitpackError(
            f"metadata node at {fields_path!r} must be a sequence of field "
            f"specs", code="FIELD_SPEC_INVALID")
    specs: dict[str, dict] = {}
    for item in node:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise UnitpackError(
                f"each field spec at {fields_path!r} must be a map with a "
                f"string 'name'", code="FIELD_SPEC_INVALID")
        if item["name"] in specs:
            raise UnitpackError(
                f"duplicate field spec for column {item['name']!r}",
                code="FIELD_SPEC_INVALID")
        specs[item["name"]] = item
    return specs


def build_entry_from_table(identifier: str, table: Table,
                           metadata: MetadataDoc,
                           fields_path: str = DEFAULT_FIELDS_PATH) -> Entry:
    """Assemble an Entry from an already-parsed table.

    Field order follows the CSV; columns without a spec in the metadata
    get an inferred type (number iff every non-null cell is numeric) and
    no unit.
    """
    specs = _specs_from_metadata(metadata, fields_path)
    unknown = [name for name in specs if name not in table.columns]
    if unknown:
        raise FieldSpecUnknownColumn(
            f"field spec(s) name column(s) absent from the CSV: "
            f"{', '.join(map(repr, unknown))}")
    fields = []
    for column in table.columns:
        item = specs.get(column, {})
        declared_type = item.get("type")
        if declared_type is None:
            cells = table.column_values(column)
            declared_type = ("number"
                             if _plain_numbers(cells)
                             or all(_is_number(c) for c in cells
                                    if c is not None)
                             else "string")
        fields.append(FieldSpec(
            name=column,
            type=declared_type,
            unit=item.get("unit"),
            description=item.get("description"),
        ))
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
    only appears once its CSV is complete.
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
    descriptor = {
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
    }
    csv_temp, json_temp = _temp_path(csv_path), _temp_path(json_path)
    try:
        write_table(entry.table, csv_temp)
        json_temp.write_text(json.dumps(descriptor, indent=2,
                                        ensure_ascii=False) + "\n",
                             encoding="utf-8")
        os.replace(csv_temp, csv_path)
        os.replace(json_temp, json_path)
    finally:
        for temp in (csv_temp, json_temp):
            temp.unlink(missing_ok=True)
    return json_path, csv_path


def _temp_path(target: Path) -> Path:
    """A fresh hidden name beside `target` that no collection reads."""
    return target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")


def load_entry(json_path: str | Path) -> Entry:
    """Inverse of save_entry; re-parses unit strings.

    Only the CSV's header is read here, so a missing CSV, an empty one,
    duplicate columns or a schema/column mismatch fail now, while errors
    in the rows surface when the table's rows are first used.
    """
    json_path = Path(json_path)
    if not json_path.is_file():
        raise DescriptorParseError(f"no such descriptor: {json_path}")
    try:
        descriptor = json.loads(json_path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise DescriptorParseError(
            f"bad JSON in {json_path}: {exc}") from exc

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
    csv_path = json_path.parent / resource["path"]
    if not csv_path.is_file():
        raise MissingCsv(f"{json_path}: resource CSV not found: {csv_path}")
    table = open_table(csv_path)

    fields = []
    for item in schema_fields:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise DescriptorParseError(
                f"{json_path}: each schema field must be a map with a name")
        fields.append(FieldSpec(
            name=item["name"],
            type=item.get("type", "number"),
            unit=item.get("unit"),
            description=item.get("description"),
        ))
    return Entry(identifier=identifier, fields=tuple(fields), table=table,
                 metadata=MetadataDoc(root=resource["metadata"]))


def rescale(entry: Entry, targets: dict[str, str]) -> Entry:
    """Return a new Entry with the targeted fields converted to new units.

    Each conversion factor is exact rational; it is applied to floating
    cells as (cell × numerator) / denominator, which keeps decimal
    factors like 10⁻³ within one ulp.
    """
    if not targets:
        return entry
    factors: dict[int, Fraction] = {}
    new_fields = list(entry.fields)
    for name, unit_text in targets.items():
        index = None
        for i, spec in enumerate(entry.fields):
            if spec.name == name:
                index = i
                break
        if index is None:
            raise UnknownField(
                f"no field {name!r} in entry {entry.identifier!r}")
        old_unit = entry.fields[index].parsed_unit()
        try:
            new_unit = units.parse_unit(unit_text)
        except UnitpackError as exc:
            raise InvalidUnit(f"bad target unit {unit_text!r}: {exc}") from exc
        factors[index] = units.conversion_factor(old_unit, new_unit)
        new_fields[index] = replace(entry.fields[index], unit=unit_text)

    new_rows = []
    for row in entry.table.rows:
        cells = list(row)
        for index, factor in factors.items():
            cell = cells[index]
            if cell is None:
                continue
            if not _is_number(cell):
                raise NonNumericCell(
                    f"field {entry.fields[index].name!r} holds non-numeric "
                    f"cell {cell!r}")
            cells[index] = units.apply_factor(cell, factor)
        new_rows.append(tuple(cells))
    new_table = Table(columns=entry.table.columns, rows=tuple(new_rows))
    return Entry(identifier=entry.identifier, fields=tuple(new_fields),
                 table=new_table, metadata=entry.metadata)


AGGREGATES = ("mean", "min", "max", "first")


def field_quantity(entry: Entry, field_name: str,
                   aggregate: str = "mean") -> units.Quantity:
    """Aggregate a unit-carrying column into a Quantity."""
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r} "
                         f"(expected one of {', '.join(AGGREGATES)})")
    spec = entry.field(field_name)
    unit = spec.parsed_unit()
    values = []
    for cell in entry.table.column_values(field_name):
        if cell is None:
            continue
        if not _is_number(cell):
            raise NonNumericCell(
                f"field {field_name!r} holds non-numeric cell {cell!r}")
        values.append(cell)
    if not values:
        raise NonNumericCell(f"field {field_name!r} has no numeric cells")
    if aggregate == "mean":
        value = statistics.fmean(values)
    elif aggregate == "min":
        value = min(values)
    elif aggregate == "max":
        value = max(values)
    else:
        value = values[0]
    return units.Quantity(float(value), unit)
