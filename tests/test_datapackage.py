import json
import math
import os
import statistics
from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CsvParseError,
    DescriptorParseError,
    DimensionMismatch,
    FieldHasNoUnit,
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


@pytest.mark.parametrize("rows, expected", [
    (((None,), (None,)), "number"),  # all null
    ((), "number"),  # header only
    (((1,), ("x",), (None,)), "string"),
])
def test_inferred_column_type(rows, expected):
    table = Table(columns=("c",), rows=rows)
    metadata = MetadataDoc(root={"fields": []})
    entry = datapackage.build_entry_from_table("data", table, metadata,
                                               fields_path="fields")
    assert entry.field("c").type == expected


def test_spec_for_absent_column_rejected(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,U\n0,1\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure description": {"fields": [
        {"name": "X", "unit": "s"}]}})
    with pytest.raises(FieldSpecUnknownColumn):
        build_entry(csv_path, metadata)


def test_specs_for_absent_columns_are_listed_in_spec_order():
    metadata = MetadataDoc(root={"fields": [{"name": "Z"}, {"name": "t"},
                                            {"name": "X"}]})
    with pytest.raises(FieldSpecUnknownColumn) as excinfo:
        datapackage.build_entry_from_table(
            "data", Table(columns=("t", "U"), rows=()), metadata,
            fields_path="fields")
    assert str(excinfo.value) == \
        "field spec(s) name column(s) absent from the CSV: 'Z', 'X'"
    assert excinfo.value.code == "FIELD_SPEC_UNKNOWN_COLUMN"


@pytest.mark.parametrize("unit", [1, ["m"]])
def test_non_string_unit_in_spec(unit):
    with pytest.raises(InvalidUnit):
        FieldSpec(name="t", unit=unit)


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
    descriptor = json.loads(
        (packed_dir / "data.json").read_text(encoding="utf-8"))
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
    descriptor = json.loads(json_path.read_text(encoding="utf-8"))
    del descriptor["resources"][0]["schema"]["fields"][2]  # drop T
    json_path.write_text(json.dumps(descriptor), encoding="utf-8")
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


def _point_at(json_path: Path, rel_path: str) -> None:
    descriptor = json.loads(json_path.read_text(encoding="utf-8"))
    descriptor["resources"][0]["path"] = rel_path
    json_path.write_text(json.dumps(descriptor), encoding="utf-8")


# Each resource path and the CSV path the message names, relative to the
# package directory, spelled as pathlib spells the joined path.
@pytest.mark.parametrize("rel_path, shown", [
    ("data.csv", "data.csv"),
    ("./data.csv", "data.csv"),
    ("sub//data.csv", "sub/data.csv"),
    ("sub/./data.csv", "sub/data.csv"),
    ("", ""),
    ("sub/", "sub"),
])
@pytest.mark.parametrize("spell", [Path, str])
def test_missing_csv_message_names_the_joined_path(demo_entry, tmp_path,
                                                   rel_path, shown, spell):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "pkg")
    csv_path.unlink()
    (tmp_path / "pkg" / "sub").mkdir()
    _point_at(json_path, rel_path)
    with pytest.raises(MissingCsv) as excinfo:
        load_entry(spell(json_path))
    assert str(excinfo.value) == \
        f"{json_path}: resource CSV not found: {json_path.parent / shown}"


@pytest.mark.parametrize("spell", [Path, str])
def test_missing_csv_message_of_a_descriptor_in_the_working_directory(
        demo_entry, tmp_path, monkeypatch, spell):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "pkg")
    csv_path.unlink()
    monkeypatch.chdir(json_path.parent)
    for rel_path, shown in (("data.csv", "data.csv"), ("", ".")):
        _point_at(json_path, rel_path)
        with pytest.raises(MissingCsv) as excinfo:
            load_entry(spell("data.json"))
        assert str(excinfo.value) == \
            f"data.json: resource CSV not found: {shown}"


@pytest.mark.parametrize("spell", [Path, str])
def test_a_directory_is_neither_descriptor_nor_csv(demo_entry, tmp_path,
                                                   spell):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "pkg")
    csv_path.unlink()
    csv_path.mkdir()
    with pytest.raises(MissingCsv) as excinfo:
        load_entry(spell(json_path))
    assert str(excinfo.value) == \
        f"{json_path}: resource CSV not found: {csv_path}"
    for descriptor in (tmp_path / "absent.json", csv_path,
                       json_path / "data.json"):
        with pytest.raises(DescriptorParseError) as excinfo:
            load_entry(spell(descriptor))
        assert str(excinfo.value) == f"no such descriptor: {descriptor}"


def test_load_entry_stats_the_descriptor_once(demo_entry, tmp_path,
                                              monkeypatch):
    json_path, _ = save_entry(demo_entry, tmp_path / "pkg")
    real_stat, stated = os.stat, []

    def counting_stat(path, *args, **kwargs):
        stated.append(os.fspath(path))
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    load_entry(json_path)
    assert stated.count(str(json_path)) == 1


# The package-path rule as pathlib states it: not absolute, no ".." part.
@settings(max_examples=300)
@given(st.text(alphabet="/.a\\", max_size=12))
def test_stays_inside_agrees_with_pure_posix_path(rel_path):
    path = PurePosixPath(rel_path)
    assert datapackage._stays_inside(rel_path) == \
        (not (path.is_absolute() or ".." in path.parts))


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
    assert calls == [str(csv_path)]


@pytest.mark.parametrize("directory, resource_path, spelled", [
    ("out", "data.csv", "out/data.csv"),
    ("./out/", "./sub//data.csv", "out/sub/data.csv"),
    (None, "sub/./data.csv", "{tmp}/out/sub/data.csv"),
])
def test_header_changed_after_a_collection_load_names_the_csv(
        demo_entry, tmp_path, monkeypatch, directory, resource_path,
        spelled):
    monkeypatch.chdir(tmp_path)
    json_path, csv_path = save_entry(demo_entry, tmp_path / "out")
    _point_at(json_path, resource_path)
    target = tmp_path / "out" / resource_path
    target.parent.mkdir(exist_ok=True)
    csv_path.rename(target)
    (entry,) = from_directory(directory or str(tmp_path / "out")).entries
    target.write_text("t,V,T\n0,1,2\n", encoding="utf-8")
    with pytest.raises(SchemaTableMismatch) as excinfo:
        entry.table.rows
    assert str(excinfo.value) == (
        f"{spelled.format(tmp=tmp_path)}: header changed since it was read: "
        f"['t', 'U', 'T'] is now ['t', 'V', 'T']")


def test_save_loaded_entry_over_its_own_files(demo_entry, tmp_path):
    json_path, _ = save_entry(demo_entry, tmp_path / "out")
    save_entry(load_entry(json_path), tmp_path / "out", overwrite=True)
    assert load_entry(json_path) == demo_entry
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "data.csv", "data.json"]


def test_failed_overwrite_keeps_old_descriptor(demo_entry, tmp_path,
                                               monkeypatch):
    outdir = tmp_path / "out"
    json_path, csv_path = save_entry(demo_entry, outdir)
    old_descriptor, old_csv = json_path.read_bytes(), csv_path.read_bytes()
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
    assert csv_path.read_bytes() == old_csv
    assert load_entry(json_path) == demo_entry
    assert sorted(p.name for p in outdir.iterdir()) == ["data.csv",
                                                        "data.json"]


def test_failed_first_save_leaves_no_csv(demo_entry, tmp_path,
                                         monkeypatch):
    outdir = tmp_path / "out"
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).suffix == ".json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(datapackage.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_entry(demo_entry, outdir)
    assert list(outdir.iterdir()) == []
    monkeypatch.undo()
    json_path, _ = save_entry(demo_entry, outdir)
    assert load_entry(json_path) == demo_entry


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_save_of_metadata_json_cannot_hold_writes_nothing(demo_entry,
                                                          tmp_path, value):
    outdir = tmp_path / "out"
    save_entry(demo_entry, outdir)
    before = {path.name: path.read_bytes() for path in outdir.iterdir()}
    entry = Entry(identifier=demo_entry.identifier, fields=demo_entry.fields,
                  table=demo_entry.table,
                  metadata=MetadataDoc(root={"x": [1.5, value]}))
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_entry(entry, outdir, overwrite=True)
    assert {path.name: path.read_bytes()
            for path in outdir.iterdir()} == before


def test_load_missing_descriptor(tmp_path):
    with pytest.raises(DescriptorParseError, match="no such descriptor"):
        load_entry(tmp_path / "absent.json")


def test_load_undecodable_descriptor(packed_dir):
    json_path = packed_dir / "data.json"
    json_path.write_bytes(json_path.read_bytes().replace(b"Max", b"\xff"))
    with pytest.raises(DescriptorParseError, match="can't decode"):
        load_entry(json_path)


def test_load_undecodable_csv_header(packed_dir):
    csv_path = packed_dir / "data.csv"
    csv_path.write_bytes(b"t,\xff,T\n0,1,2\n")
    with pytest.raises(CsvParseError) as excinfo:
        load_entry(packed_dir / "data.json")
    assert str(csv_path) in str(excinfo.value)
    with pytest.raises(CollectionLoadError, match="not UTF-8"):
        from_directory(packed_dir)
    assert len(from_directory(packed_dir, skip_errors=True)) == 0


def test_rescale_of_oversized_csv_field(packed_dir):
    csv_path = packed_dir / "data.csv"
    csv_path.write_text("t,U,T\n0," + "1" * 200_000 + ",2\n",
                        encoding="utf-8")
    entry = load_entry(packed_dir / "data.json")
    with pytest.raises(CsvParseError) as excinfo:
        rescale(entry, {"U": "V"})
    assert str(csv_path) in str(excinfo.value)


def test_load_bad_descriptor(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptorParseError):
        load_entry(path)
    path.write_text('{"resources": []}', encoding="utf-8")
    with pytest.raises(DescriptorParseError):
        load_entry(path)


@pytest.mark.parametrize("spelling", ["number", "dotdot", "nested-dotdot",
                                      "absolute"])
def test_load_rejects_resource_path_outside_package(demo_entry, tmp_path,
                                                    spelling):
    json_path, csv_path = save_entry(demo_entry, tmp_path / "pkg")
    secret = tmp_path / "secret.csv"
    secret.write_bytes(csv_path.read_bytes())
    bad_path = {"number": 5, "dotdot": "../secret.csv",
                "nested-dotdot": "sub/../../secret.csv",
                "absolute": str(secret)}[spelling]
    descriptor = json.loads(json_path.read_text(encoding="utf-8"))
    descriptor["resources"][0]["path"] = bad_path
    json_path.write_text(json.dumps(descriptor), encoding="utf-8")
    with pytest.raises(DescriptorParseError) as excinfo:
        load_entry(json_path)
    assert str(excinfo.value) == (
        f"{json_path}: resource path must be a relative path inside the "
        f"package, got {bad_path!r}")


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


def _voltage_entry(rows, fields=(FieldSpec(name="U", unit="mV"),)) -> Entry:
    columns = tuple(f.name for f in fields)
    return Entry(identifier="volts", fields=fields,
                 table=Table(columns=columns, rows=rows),
                 metadata=MetadataDoc(root={}))


def test_rescale_keeps_null_cells():
    entry = _voltage_entry(((1000,), (None,), (2500.0,)))
    assert rescale(entry, {"U": "V"}).table.column_values("U") == \
        (1, None, 2.5)


def test_rescale_names_non_numeric_cell():
    entry = _voltage_entry(((1.0,), ("n/a",), (2.0,)))
    with pytest.raises(NonNumericCell,
                       match="field 'U' holds non-numeric cell 'n/a'"):
        rescale(entry, {"U": "V"})


def test_rescale_resolves_every_target_before_any_cell():
    fields = (FieldSpec(name="U", unit="mV"), FieldSpec(name="I", unit="mA"))
    entry = _voltage_entry((("bad", 1.0),), fields)
    with pytest.raises(UnknownField):
        rescale(entry, {"U": "V", "X": "A"})


def test_rescale_names_the_first_target_with_a_bad_cell():
    # Each target column is checked whole, in `targets` order, so the
    # second target's bad cell is named though it sits in an earlier row.
    fields = (FieldSpec(name="U", unit="mV"), FieldSpec(name="I", unit="mA"))
    entry = _voltage_entry(((1.0, "x"), ("y", 2.0)), fields)
    with pytest.raises(NonNumericCell, match="field 'I' holds .* 'x'"):
        rescale(entry, {"I": "A", "U": "V"})


def test_rescale_header_only_entry():
    rescaled = rescale(_voltage_entry(()), {"U": "V"})
    assert rescaled.table == Table(columns=("U",), rows=())
    assert rescaled.field("U").unit == "V"


def test_rescale_of_a_loaded_header_only_entry(demo_entry, tmp_path):
    header_only = Entry(identifier="demo", fields=demo_entry.fields,
                        table=Table(columns=demo_entry.table.columns,
                                    rows=()),
                        metadata=demo_entry.metadata)
    json_path, _ = save_entry(header_only, tmp_path / "out")
    rescaled = rescale(load_entry(json_path), {"U": "V"})
    assert rescaled.table == header_only.table
    assert rescaled.table.rows == ()
    assert rescaled.table.column_values("U") == ()
    assert rescaled.field("U").unit == "V"


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


@pytest.mark.parametrize("cells, mean", [
    ((1e308, 1e308), 1e308),
    ((-1e308, -1e308, -1e308), -1e308),
    ((1.7976931348623157e308, 1.7976931348623157e308, 0.0),
     float(Fraction(1.7976931348623157e308) * 2 / 3)),
])
def test_mean_beyond_the_float_sum_is_exact(cells, mean):
    entry = _voltage_entry(tuple((cell,) for cell in cells))
    assert field_quantity(entry, "U", "mean").magnitude == mean


@pytest.mark.parametrize("aggregate", ["mean", "max", "first"])
def test_aggregate_of_an_int_beyond_the_float_range(aggregate):
    entry = _voltage_entry(((10**400,), (1,)))
    with pytest.raises(OutOfRange) as excinfo:
        field_quantity(entry, "U", aggregate)
    assert excinfo.value.code == "OUT_OF_RANGE"
    assert field_quantity(entry, "U", "min").magnitude == 1.0


def test_mean_keeps_fmean_where_it_does_not_overflow():
    # fmean rounds the sum, then the quotient: 0.27777777777777773,
    # where the exact mean rounds to 0.2777777777777778.
    cells = (0.3, 0.2, 1 / 3)
    entry = _voltage_entry(tuple((cell,) for cell in cells))
    assert field_quantity(entry, "U", "mean").magnitude == \
        statistics.fmean(cells)


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


def test_identifier_must_be_valid_utf8():
    with pytest.raises(InvalidIdentifier, match="valid UTF-8"):
        identifier_from_path("bad\udcff.csv")


def test_overflowing_cells_stay_text_through_pack_and_load(tmp_path):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("t,U\n0,1e999\n1,-1e400\n2,1.5\n", encoding="utf-8")
    metadata = MetadataDoc(root={"figure_description": {"fields": [
        {"name": "U", "unit": "mV"}]}})
    entry = build_entry(csv_path, metadata)
    assert entry.table.column_values("U") == ("1e999", "-1e400", 1.5)
    json_path, _ = save_entry(entry, tmp_path / "out")
    assert load_entry(json_path).table == entry.table
    with pytest.raises(NonNumericCell, match="'1e999'"):
        field_quantity(entry, "U")


@pytest.mark.parametrize("identifier", ["a/b", "a\\b"])
def test_identifier_with_a_path_separator_is_invalid(identifier):
    with pytest.raises(InvalidIdentifier, match="path separators") as excinfo:
        datapackage.validate_identifier(identifier)
    assert excinfo.value.code == "INVALID_IDENTIFIER"


# Every character at which `str.splitlines` ends a line.
@pytest.mark.parametrize("line_break", [
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029"])
def test_identifier_with_a_line_break_is_invalid(line_break):
    with pytest.raises(InvalidIdentifier, match="line break") as excinfo:
        datapackage.validate_identifier(f"a{line_break}b")
    assert excinfo.value.code == "INVALID_IDENTIFIER"


@pytest.mark.parametrize("control", ["\x1b", "\t", "\x7f", "\x80"])
def test_identifier_with_a_control_character_is_invalid(control):
    with pytest.raises(InvalidIdentifier,
                       match="control character") as excinfo:
        datapackage.validate_identifier(f"a{control}[2kb")
    assert excinfo.value.code == "INVALID_IDENTIFIER"


def test_entry_field_of_an_unknown_name_lists_the_fields(demo_entry):
    with pytest.raises(UnknownField) as excinfo:
        demo_entry.field("X")
    assert str(excinfo.value) == \
        "no field 'X' in entry 'data' (fields: t, U, T)"


def test_field_list_naming_a_column_twice_is_invalid():
    metadata = MetadataDoc(root={"fields": [{"name": "c"},
                                            {"name": "c", "unit": "s"}]})
    with pytest.raises(UnitpackError,
                       match="duplicate field spec for column 'c'") as excinfo:
        datapackage.build_entry_from_table(
            "data", Table(columns=("c",), rows=((1,),)), metadata,
            fields_path="fields")
    assert excinfo.value.code == "FIELD_SPEC_INVALID"


def test_field_quantity_unknown_aggregate_and_all_null_column():
    entry = _voltage_entry(((None,), (None,)))
    with pytest.raises(ValueError, match="unknown aggregate 'median'"):
        field_quantity(entry, "U", "median")
    with pytest.raises(NonNumericCell,
                       match="field 'U' has no numeric cells") as excinfo:
        field_quantity(entry, "U", "mean")
    assert excinfo.value.code == "NON_NUMERIC_CELL"


def test_rescale_unknown_field_lists_the_fields(demo_entry):
    with pytest.raises(UnknownField) as excinfo:
        rescale(demo_entry, {"X": "V"})
    assert str(excinfo.value) == \
        "no field 'X' in entry 'data' (fields: t, U, T)"


@settings(max_examples=200, deadline=None)
@given(st.builds(
    FieldSpec, name=st.text(max_size=8),
    type=st.sampled_from(datapackage.FIELD_TYPES),
    unit=st.none() | st.sampled_from(["s", "mV", "1", "m^-2",
                                      "kg*m^2/s^3/A", " Ω "]),
    description=st.none() | st.text(max_size=8)))
def test_field_descriptor_round_trip(spec):
    descriptor = json.loads(json.dumps(spec.to_descriptor()))
    assert FieldSpec.from_descriptor(descriptor) == spec


def test_field_descriptor_without_a_type_is_a_number():
    assert FieldSpec.from_descriptor({"name": "t", "unit": "s"}) == \
        FieldSpec(name="t", type="number", unit="s")
    with pytest.raises(UnitpackError, match="bad type None") as excinfo:
        FieldSpec.from_descriptor({"name": "t", "type": None})
    assert excinfo.value.code == "FIELD_SPEC_INVALID"


# A Table Schema description is a string.
@pytest.mark.parametrize("description", [5, 1.5, True, ["a", "b"], {"a": 1}])
def test_field_description_that_is_not_text_is_invalid(description):
    with pytest.raises(UnitpackError,
                       match="description must be text") as excinfo:
        FieldSpec.from_descriptor({"name": "t", "description": description})
    assert excinfo.value.code == "FIELD_SPEC_INVALID"
