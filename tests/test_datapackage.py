import json
import math
import os
from pathlib import Path

import pytest

from unitpack import datapackage, tabular, units
from unitpack.datapackage import (
    Entry,
    FieldSpec,
    build_entry,
    field_quantity,
    identifier_from_path,
    load_entry,
    rescale,
    save_entry,
)
from unitpack.collection import from_directory
from unitpack.errors import (
    CollectionLoadError,
    DescriptorParseError,
    DimensionMismatch,
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
from unitpack.metadata import MetadataDoc, get_path, load_document
from unitpack.tabular import Table

from conftest import DEMO_META, forbid_csv_body


# -------------------------------
# identifiers
# -------------------------------

def test_identifier_strips_final_extension():
    assert identifier_from_path("/lab/data.csv") == "data"


def test_identifier_lowercases():
    assert identifier_from_path("DATA.CSV") == "data"
    assert identifier_from_path("Data.Csv") == "data"


def test_identifier_rejects_interior_dots():
    with pytest.raises(InvalidIdentifier):
        identifier_from_path("my.data.csv")


def test_identifier_rejects_empty_stem():
    with pytest.raises(InvalidIdentifier):
        identifier_from_path(".csv")


# -------------------------------
# build_entry
# -------------------------------

def test_build_demo_entry(demo_entry):
    assert demo_entry.identifier == "data"
    assert [(f.name, f.unit) for f in demo_entry.fields] == \
        [("t", "s"), ("U", "mV"), ("T", "K")]
    assert demo_entry.fields[0].description == "relative time"
    assert demo_entry.table.row_count == 3
    assert get_path(demo_entry.metadata, "user") == "Max Doe"


def test_unspecced_column_gets_inferred_spec(tmp_path):
    # oracle: inference rule applied by hand; `note` has a non-numeric
    # cell, so it becomes a unit-less string field.
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,U,T,note\n0,1.01,275,warmup\n1,1.02,275,steady\n"
                        "2,1.05,275,steady\n", encoding="utf-8")
    meta_path = tmp_path / "data.csv.meta.yaml"
    meta_path.write_text(DEMO_META, encoding="utf-8")
    entry = build_entry(csv_path, load_document(meta_path))
    note = entry.field("note")
    assert note.type == "string"
    assert note.unit is None


def test_spec_for_absent_column_rejected(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,U\n0,1\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "X", "unit": "s"}]}})
    with pytest.raises(FieldSpecUnknownColumn):
        build_entry(csv_path, metadata)


def test_bad_unit_in_spec(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t\n0\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "t", "unit": "wat"}]}})
    with pytest.raises(InvalidUnit):
        build_entry(csv_path, metadata)


def test_custom_fields_path(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t\n0\n", encoding="utf-8")
    metadata = MetadataDoc(root={"my": {"specs": [{"name": "t",
                                                   "unit": "ms"}]}})
    entry = build_entry(csv_path, metadata, fields_path="my.specs")
    assert entry.field("t").unit == "ms"


# -------------------------------
# save / load
# -------------------------------

def test_save_writes_descriptor_shape(packed_dir):
    descriptor = json.loads((packed_dir / "data.json").read_text())
    assert set(descriptor) == {"resources"}
    resource = descriptor["resources"][0]
    assert resource["name"] == "data"
    assert resource["type"] == "table"
    assert resource["path"] == "data.csv"
    assert resource["format"] == "csv"
    assert resource["mediatype"] == "text/csv"
    assert resource["schema"]["fields"][0] == {
        "name": "t", "type": "number", "unit": "s",
        "description": "relative time"}
    assert resource["metadata"]["user"] == "Max Doe"
    assert (packed_dir / "data.csv").is_file()


def test_save_load_roundtrip(demo_entry, tmp_path):
    json_path, _ = save_entry(demo_entry, tmp_path / "out")
    assert load_entry(json_path) == demo_entry


def test_second_save_refused_without_overwrite(demo_entry, tmp_path):
    outdir = tmp_path / "out"
    save_entry(demo_entry, outdir)
    with pytest.raises(RefusedOverwrite):
        save_entry(demo_entry, outdir)
    save_entry(demo_entry, outdir, overwrite=True)


def test_load_schema_table_mismatch(demo_entry, tmp_path):
    json_path, _ = save_entry(demo_entry, tmp_path / "out")
    descriptor = json.loads(json_path.read_text())
    del descriptor["resources"][0]["schema"]["fields"][2]  # drop T
    json_path.write_text(json.dumps(descriptor))
    with pytest.raises(SchemaTableMismatch):
        load_entry(json_path)
    # a collection load names the descriptor that failed
    with pytest.raises(CollectionLoadError) as info:
        from_directory(json_path.parent)
    assert [path for path, _ in info.value.failures] == [str(json_path)]
    assert str(info.value).startswith("1 descriptor(s) failed to load: "
                                      f"{json_path}: ")


def test_load_missing_csv(demo_entry, tmp_path):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "out")
    csv_path.unlink()
    with pytest.raises(MissingCsv):
        load_entry(json_path)


@pytest.mark.parametrize("csv_text, code", [
    (None, "MISSING_CSV"),
    ("", "EMPTY_CSV"),
    ("t,U,U\n0,1,2\n", "DUPLICATE_COLUMN"),
    ("t,U\n0,1\n", "SCHEMA_TABLE_MISMATCH"),
])
def test_load_checks_csv_header_eagerly(demo_entry, tmp_path, monkeypatch,
                                        csv_text, code):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "out")
    if csv_text is None:
        csv_path.unlink()
    else:
        csv_path.write_text(csv_text, encoding="utf-8")
    forbid_csv_body(monkeypatch)
    with pytest.raises(UnitpackError) as excinfo:
        load_entry(json_path)
    assert excinfo.value.code == code


def test_loaded_entry_reads_rows_lazily_and_equals_saved(demo_entry,
                                                         tmp_path,
                                                         monkeypatch):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "out")
    calls = []
    real = tabular.read_table

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(tabular, "read_table", counting)
    monkeypatch.setattr(datapackage, "read_table", counting)
    loaded = load_entry(json_path)
    assert calls == []
    assert loaded == demo_entry and demo_entry == loaded
    assert calls == [csv_path]


def test_save_loaded_entry_over_its_own_files(demo_entry, tmp_path):
    json_path, _ = save_entry(demo_entry, tmp_path / "out")
    save_entry(load_entry(json_path), tmp_path / "out", overwrite=True)
    assert load_entry(json_path) == demo_entry


def test_failed_overwrite_keeps_old_descriptor(demo_entry, tmp_path,
                                               monkeypatch):
    outdir = tmp_path / "out"
    json_path, _ = save_entry(demo_entry, outdir)
    old_descriptor = json_path.read_bytes()
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == json_path:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(datapackage.os, "replace", failing_replace)
    rescaled = rescale(demo_entry, {"U": "V"})
    with pytest.raises(OSError, match="disk full"):
        save_entry(rescaled, outdir, overwrite=True)
    assert json_path.read_bytes() == old_descriptor
    assert sorted(p.name for p in outdir.iterdir()) == ["data.csv",
                                                        "data.json"]


def test_load_bad_descriptor(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptorParseError):
        load_entry(path)
    path.write_text('{"resources": []}', encoding="utf-8")
    with pytest.raises(DescriptorParseError):
        load_entry(path)


# -------------------------------
# rescale
# -------------------------------

def test_rescale_mv_to_v(demo_entry):
    rescaled = rescale(demo_entry, {"U": "V"})
    expected = (0.00101, 0.00102, 0.00105)
    for got, want in zip(rescaled.table.column_values("U"), expected):
        assert math.isclose(got, want, rel_tol=1e-12)
    assert rescaled.field("U").unit == "V"
    # untargeted fields and metadata are untouched
    assert rescaled.table.column_values("t") == \
        demo_entry.table.column_values("t")
    assert rescaled.table.column_values("T") == \
        demo_entry.table.column_values("T")
    assert rescaled.metadata == demo_entry.metadata
    assert rescaled.table.row_count == demo_entry.table.row_count


def test_rescale_empty_targets_is_identity(demo_entry):
    assert rescale(demo_entry, {}) == demo_entry


def test_rescale_dimension_mismatch(demo_entry):
    with pytest.raises(DimensionMismatch):
        rescale(demo_entry, {"U": "K"})


def test_rescale_unknown_field(demo_entry):
    with pytest.raises(UnknownField):
        rescale(demo_entry, {"X": "V"})


def test_rescale_field_without_unit(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,note\n0,x\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "t", "unit": "s"}]}})
    entry = build_entry(csv_path, metadata)
    with pytest.raises(FieldHasNoUnit):
        rescale(entry, {"note": "V"})


def test_rescale_invertible(demo_entry):
    back = rescale(rescale(demo_entry, {"U": "V"}), {"U": "mV"})
    for got, want in zip(back.table.column_values("U"),
                         demo_entry.table.column_values("U")):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_rescale_composition(demo_entry):
    direct = rescale(demo_entry, {"U": "uV"})
    via_v = rescale(rescale(demo_entry, {"U": "V"}), {"U": "uV"})
    for got, want in zip(direct.table.column_values("U"),
                         via_v.table.column_values("U")):
        assert math.isclose(got, want, rel_tol=1e-12)


# -------------------------------
# field_quantity
# -------------------------------

def _flat_voltage_entry() -> Entry:
    table = Table(columns=("U",), rows=((1.0,), (1.0,), (1.0,)))
    return Entry(identifier="flat", fields=(FieldSpec(name="U", unit="mV"),),
                 table=table, metadata=MetadataDoc(root={"current": "5 mA"}))


def test_mean_quantity_through_ohms_law():
    # oracle: hand arithmetic, mean 1.0 mV over 5 mA is 0.2 Ohm
    entry = _flat_voltage_entry()
    mean_u = field_quantity(entry, "U", "mean")
    assert mean_u.magnitude == 1.0
    current = units.parse_quantity(get_path(entry.metadata, "current"))
    resistance = (mean_u / current).to("Ohm")
    assert math.isclose(resistance.magnitude, 0.2, rel_tol=1e-12)


def test_min_of_temperature(demo_entry):
    q = field_quantity(demo_entry, "T", "min")
    assert q.magnitude == 275.0
    assert q.unit == units.parse_unit("K")


def test_aggregates(demo_entry):
    assert field_quantity(demo_entry, "U", "max").magnitude == 1.05
    assert field_quantity(demo_entry, "U", "first").magnitude == 1.01
    assert math.isclose(field_quantity(demo_entry, "U", "mean").magnitude,
                        (1.01 + 1.02 + 1.05) / 3, rel_tol=1e-12)


def test_string_field_rejected(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("note\nhello\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "note", "unit": "s"}]}})
    entry = build_entry(csv_path, metadata)
    with pytest.raises(NonNumericCell):
        field_quantity(entry, "note", "mean")


def test_mean_skips_nulls(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("U\n1.0\n\n3.0\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "U", "unit": "mV"}]}})
    entry = build_entry(csv_path, metadata)
    assert field_quantity(entry, "U", "mean").magnitude == 2.0


# -------------------------------
# entry invariants
# -------------------------------

def test_entry_rejects_field_table_mismatch():
    with pytest.raises(SchemaTableMismatch):
        Entry(identifier="x", fields=(FieldSpec(name="a"),),
              table=Table(columns=("b",), rows=()),
              metadata=MetadataDoc(root={}))


def test_entry_rejects_bad_identifier():
    table = Table(columns=("a",), rows=())
    with pytest.raises(InvalidIdentifier):
        Entry(identifier="Has.Dot", fields=(FieldSpec(name="a"),),
              table=table, metadata=MetadataDoc(root={}))
