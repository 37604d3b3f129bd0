"""Hostile inputs through the whole command line, in process.

Each case writes outside input into a fresh directory: a descriptor, a
CSV, a sidecar, a loader spec, a profile, a unit string, a file name or
a value at the edge of the float range.  It then runs one `unitpack`
command over it.  Whatever the input, the command ends with exit 0, 1 or
2, prints at most one ``CODE:`` line on stderr and lets no exception out
of `cli.main`.
"""

import csv
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unitpack import cli

from conftest import DEMO_CSV, DEMO_META

CODE_LINE = re.compile(r"^[A-Z][A-Z_]*: ", re.MULTILINE)
HUGE_EXPONENT = "m^" + "9" * 5000
LONG_INT = "1" * 5000  # more digits than `int` converts from text
DEEP = "[" * 100_000 + "]" * 100_000


def descriptor(name="data", path="data.csv", u_unit="mV", **resource):
    """A one-resource descriptor over the demo columns, with `resource`
    keys overriding the defaults."""
    fields = [{"name": "t", "type": "number", "unit": "s"},
              {"name": "U", "type": "number", "unit": u_unit},
              {"name": "T", "type": "number", "unit": "K"}]
    return json.dumps({"resources": [{
        "name": name, "path": path, "schema": {"fields": fields},
        "metadata": {"user": "Max Doe"}, **resource}]})


def with_metadata(text):
    """`descriptor` with `text` spliced in as its metadata, for a text
    that `json.dumps` cannot write."""
    return descriptor(metadata=0).replace('"metadata": 0',
                                          f'"metadata": {text}')


# Spellings of a NaN or an infinity that Python's `json` reads; none is
# JSON.
NON_FINITE_JSON = ["NaN", "Infinity", "-Infinity", "1e999"]


def sidecar(u_unit="mV"):
    return DEMO_META.replace("unit: mV", f"unit: {u_unit}")


def run(tmp_path, monkeypatch, files, argv):
    """Write `files` (relative name to text or bytes) under `tmp_path` and
    run `argv` there, with stdout and stderr encoded as the interpreter's
    own: UTF-8, strict on stdout and backslash-escaped on stderr.  Checks
    the promise above and gives back the exit code, stdout and stderr."""
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                           write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                           errors="backslashreplace", write_through=True)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        monkeypatch.undo()
    stdout = out.buffer.getvalue().decode("utf-8")
    stderr = err.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2), stderr
    assert len(CODE_LINE.findall(stderr)) <= 1, stderr
    assert "Traceback" not in stderr, stderr
    return code, stdout, stderr


# A descriptor whose metadata map holds "user" twice.
REPEATED_USER = descriptor().replace('"user": "Max Doe"',
                                     '"user": "Max", "user": "Max Doe"')


DESCRIPTORS = {
    "empty": "",
    "truncated": '{"resources": [',
    "not-utf8": b'{"resources": "\xff"}',
    "not-a-map": "[]",
    "resource-not-a-map": '{"resources": [1]}',
    "no-schema": json.dumps({"resources": [{"name": "data",
                                            "path": "data.csv",
                                            "metadata": {}}]}),
    "fields-not-a-list": descriptor(schema={"fields": {}}),
    "field-not-a-map": descriptor(schema={"fields": [1]}),
    "field-type-unknown": descriptor(schema={"fields": [
        {"name": "t", "type": "date"}, {"name": "U"}, {"name": "T"}]}),
    "columns-mismatch": descriptor(schema={"fields": [{"name": "t"}]}),
    "name-not-text": descriptor(name=5),
    "name-uppercase": descriptor(name="Data"),
    "name-lone-surrogate": descriptor(name="bad\udcff"),
    "name-nul": descriptor(name="a\u0000b"),
    "name-newline": descriptor(name="a\nb"),
    "name-control": descriptor(name="a\x1b[2kb"),
    "path-escapes": descriptor(path="../data.csv"),
    "path-absolute": descriptor(path="/data.csv"),
    "path-not-text": descriptor(path=5),
    "csv-missing": descriptor(path="none.csv"),
    "unit-not-text": descriptor(u_unit=5),
    "unit-unknown": descriptor(u_unit="furlong"),
    "unit-empty-factor": descriptor(u_unit="m**2"),
    "unit-exponent-100": descriptor(u_unit="km^100"),
    "unit-merged-exponent-100": descriptor(u_unit="m^99*m"),
    "unit-exponent-5000-digits": descriptor(u_unit=HUGE_EXPONENT),
    "metadata-nested-deeply": with_metadata(DEEP),
    "metadata-long-int": with_metadata(LONG_INT),
    **{f"metadata-{number}": with_metadata(f'{{"x": [1.5, {number}]}}')
       for number in NON_FINITE_JSON},
    "metadata-repeated-key": REPEATED_USER,
    # `json.dumps` writes each lone surrogate as a `\u` escape.
    "metadata-lone-surrogate": descriptor(metadata={"note": "\udcff"}),
    "field-description-lone-surrogate": descriptor(schema={"fields": [
        {"name": "t", "unit": "s", "description": "\udcff"},
        {"name": "U", "unit": "mV"}, {"name": "T", "unit": "K"}]}),
}

REPORT = ["report", "coll", "--out", "out", "--x", "t", "--y", "U"]


@pytest.mark.parametrize("argv", [["ls", "coll"],
                                  ["ls", "coll", "--skip-errors"],
                                  ["show", "coll", "data"],
                                  ["describe", "coll"],
                                  REPORT,
                                  REPORT + ["--format", "html"],
                                  ["rescale", "coll", "data", "--field", "U",
                                   "--unit", "V", "--outdir", "out"]],
                         ids=" ".join)
@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_hostile_descriptor(tmp_path, monkeypatch, name, argv):
    run(tmp_path, monkeypatch, {"coll/data.json": DESCRIPTORS[name],
                                "coll/data.csv": DEMO_CSV}, argv)


@pytest.mark.parametrize("name", sorted(name for name in DESCRIPTORS
                                         if name.startswith("name-")))
def test_a_descriptor_with_a_bad_name_lists_nothing(tmp_path, monkeypatch,
                                                     name):
    code, out, err = run(tmp_path, monkeypatch,
                         {"coll/data.json": DESCRIPTORS[name],
                          "coll/data.csv": DEMO_CSV}, ["ls", "coll"])
    assert (code, out) == (1, "")
    assert err.startswith("COLLECTION_LOAD_ERROR: ")


CSVS = {
    "empty": "",
    "header-only": "t,U,T\n",
    "ragged": DEMO_CSV + "9,9\n",
    "not-utf8": b"t,U,T\n0,1.01,\xff\n",
    "duplicate-columns": "t,U,U\n0,1,2\n",
    "nul-byte": "t,U,T\n0,1\x00,275\n",
    "unclosed-quote": 't,U,T\n0,"1.01,275\n',
    "field-over-csv-limit": "t,U,T\n0," + "x" * 200_000 + ",275\n",
    "float-overflow": "t,U,T\n0,1e999,275\n1,-1e400,275\n",
    "long-int": f"t,U,T\n0,{LONG_INT},275\n",
    # an int past the float range; a span past it
    "int-beyond-float": f"t,U,T\n0,{'1' + '0' * 399},275\n1,2,275\n",
    "span-beyond-float": "t,U,T\n0,-1e308,275\n1,1e308,275\n2,0.0,275\n",
    "subnormal": "t,U,T\n0,5e-324,275\n",
    "column-without-spec": "t,U,T,X\n0,1,275,1\n",
}


@pytest.mark.parametrize("name", sorted(CSVS))
def test_hostile_csv_in_pack(tmp_path, monkeypatch, name):
    run(tmp_path, monkeypatch,
        {"data.csv": CSVS[name], "data.csv.meta.yaml": DEMO_META},
        ["pack", "data.csv", "--outdir", "out"])


@pytest.mark.parametrize("name", sorted(CSVS))
def test_hostile_csv_in_rescale(tmp_path, monkeypatch, name):
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(), "coll/data.csv": CSVS[name]},
        ["rescale", "coll", "data", "--field", "U", "--unit", "V",
         "--outdir", "out"])


@pytest.mark.parametrize("name", sorted(CSVS))
def test_hostile_csv_in_report(tmp_path, monkeypatch, name):
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(), "coll/data.csv": CSVS[name]},
        REPORT)


@pytest.mark.parametrize("name", ["int-beyond-float", "span-beyond-float"])
def test_report_of_a_plot_beyond_the_float_range_has_no_plot(
        tmp_path, monkeypatch, name):
    code, out, err = run(tmp_path, monkeypatch,
                         {"coll/data.json": descriptor(),
                          "coll/data.csv": CSVS[name]}, REPORT)
    assert (code, out) == (0, "")
    assert not (tmp_path / "out" / "plots").exists()
    page = (tmp_path / "out" / "entries" / "data.md").read_text("utf-8")
    assert "no plot available" in page


SIDECARS = {
    "empty": "",
    "not-a-map": "- 1\n",
    "unclosed-flow": "a: [\n",
    "alias": "a: &x 1\nb: *x\n",
    "duplicate-key": "a: 1\na: 2\n",
    "non-string-key": "1: a\n",
    "not-utf8": b"a: \xff\n",
    "no-fields": "user: x\n",
    "fields-not-a-list": "figure description:\n  fields: 1\n",
    "field-without-name": "figure description:\n  fields:\n    - unit: s\n",
    "field-unknown-column": "figure description:\n  fields:\n"
                            "    - name: X\n",
    "unit-not-text": sidecar("1"),
    "unit-exponent-100": sidecar("km^100"),
    "unit-exponent-5000-digits": sidecar(HUGE_EXPONENT),
    "nested-deeply": DEEP,
    "long-int": f"n: {LONG_INT}\n",
    "tag-binary": "a: !!binary aGk=\n",
    "tag-set": "a: !!set {x: null}\n",
    "tag-omap": "a: !!omap [x: 1]\n",
    "lone-surrogate-escape": 'extra: "\\udcff"\n',
    "inf": DEMO_META + "x: .inf\n",
    "minus-inf": DEMO_META + "x: -.Inf\n",
    "nan": DEMO_META + "x: .nan\n",
    "float-overflow": DEMO_META + "x: 1.0e+400\n",
    "description-number": DEMO_META.replace("relative time", "5"),
    "description-list": DEMO_META.replace("relative time", "[a, b]"),
}

# Sidecars holding a value no descriptor can, and how the one line that
# refuses each starts: JSON has none of these node kinds, no lone
# surrogate, no NaN and no infinity, and a Table Schema description is
# a string.
REFUSED = {
    **{name: "PARSE_ERROR: data.csv.meta.yaml: " for name in (
        "tag-binary", "tag-set", "tag-omap", "lone-surrogate-escape")},
    **{name: f"PARSE_ERROR: data.csv.meta.yaml: the number {number} is "
             f"not finite (line 12, column 4)\n"
       for name, number in (("inf", ".inf"), ("minus-inf", "-.Inf"),
                            ("nan", ".nan"), ("float-overflow", "1.0e+400"))},
    "description-number": "FIELD_SPEC_INVALID: field 't': description must "
                          "be text, got 5\n",
    "description-list": "FIELD_SPEC_INVALID: field 't': description must "
                        "be text, got ['a', 'b']\n",
}


@pytest.mark.parametrize("name", sorted(SIDECARS))
def test_hostile_sidecar(tmp_path, monkeypatch, name):
    code, _, stderr = run(
        tmp_path, monkeypatch,
        {"data.csv": DEMO_CSV, "data.csv.meta.yaml": SIDECARS[name]},
        ["pack", "data.csv", "--outdir", "out"])
    if name in REFUSED:
        assert code == 1, stderr
        assert stderr.startswith(REFUSED[name]), stderr
        assert not (tmp_path / "out").exists()


def test_a_tagged_date_in_a_sidecar_packs_as_text(tmp_path, monkeypatch):
    code, _, _ = run(
        tmp_path, monkeypatch,
        {"data.csv": DEMO_CSV,
         "data.csv.meta.yaml": DEMO_META + "when: !!timestamp 2001-12-14\n"},
        ["pack", "data.csv", "--outdir", "out"])
    assert code == 0
    descriptor = json.loads((tmp_path / "out" / "data.json").read_text("utf-8"))
    assert descriptor["resources"][0]["metadata"]["when"] == "2001-12-14"


LOADER_SPECS = {
    "not-a-map": "- 1\n",
    "unknown-key": "sheet: 1\n",
    "delimiter-not-text": "delimiter: 5\n",
    "header-row-beyond-file": "header_row: 99\n",
    "header-row-long-int": f"header_row: {LONG_INT}\n",
    "rename-source-missing": "rename: {X: Y}\n",
}


@pytest.mark.parametrize("name", sorted(LOADER_SPECS))
def test_hostile_loader_spec(tmp_path, monkeypatch, name):
    run(tmp_path, monkeypatch,
        {"data.csv": DEMO_CSV, "data.csv.meta.yaml": DEMO_META,
         "loader.yaml": LOADER_SPECS[name]},
        ["pack", "data.csv", "--loader", "loader.yaml", "--outdir", "out"])


PROFILES = {
    "not-a-map": "- 1\n",
    "describe-not-a-list": "describe: 1\n",
    "item-without-path": "describe:\n  - label: x\n",
    "nested-deeply": DEEP,
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_hostile_profile(tmp_path, monkeypatch, name):
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(), "coll/data.csv": DEMO_CSV,
         "profile.yaml": PROFILES[name]},
        ["describe", "coll", "--profile", "profile.yaml"])


# Schemas for `validate`, each with the code it ends in.
SCHEMAS = {
    "type-a-list": (json.dumps({"type": ["string", "null"]}),
                    "SCHEMA_MALFORMED: bad type ['string', 'null'] at <root>"),
    "type-a-map": (json.dumps({"type": {"a": 1}}),
                   "SCHEMA_MALFORMED: bad type {'a': 1} at <root>"),
    "nested-type-a-list": (
        json.dumps({"properties": {"user": {"type": ["string"]}}}),
        "SCHEMA_MALFORMED: bad type ['string'] at user"),
    "not-a-map": ("[]", "SCHEMA_MALFORMED: "),
    "unknown-keyword": (json.dumps({"$ref": "#/x"}), "SCHEMA_UNSUPPORTED: "),
    "nested-deeply": (DEEP, "PARSE_ERROR: schema.json: "),
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_hostile_schema(tmp_path, monkeypatch, name):
    schema, refusal = SCHEMAS[name]
    code, out, err = run(tmp_path, monkeypatch,
                         {"doc.yaml": "user: Max Doe\n", "schema.json": schema},
                         ["validate", "doc.yaml", "--schema", "schema.json"])
    assert (code, out) == (1, ""), err
    assert err.startswith(refusal), err


UNITS = ["", "*m", "m*", "m**2", "m* *s", "m^", "m^1.5", "km^100",
         "m^99*m", "m^-99/m", HUGE_EXPONENT, "µV", "ΩA", "1", "V/0"]


@pytest.mark.parametrize("unit", UNITS, ids=lambda unit: unit[:12])
def test_hostile_target_unit(tmp_path, monkeypatch, unit):
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(), "coll/data.csv": DEMO_CSV},
        ["rescale", "coll", "data", "--field", "U", "--unit", unit,
         "--outdir", "out"])


CLAUSES = ["user ==", "'user == x", "user ~ x", f"user == {LONG_INT}",
           f"x.{LONG_INT} == 1", "user contains 1e999"]


@pytest.mark.parametrize("clause", CLAUSES, ids=lambda text: text[:16])
def test_hostile_filter(tmp_path, monkeypatch, clause):
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(), "coll/data.csv": DEMO_CSV},
        ["ls", "coll", "--filter", clause])


FILE_NAMES = ["bad\udcff.csv", ".csv", "x.tar.csv", "UPPER.csv",
              "space name.csv"]


@pytest.mark.parametrize("name", FILE_NAMES)
@pytest.mark.parametrize("with_sidecar", [True, False])
def test_hostile_file_name(tmp_path, monkeypatch, name, with_sidecar):
    files = {name: DEMO_CSV}
    if with_sidecar:
        files[name + ".meta.yaml"] = DEMO_META
    run(tmp_path, monkeypatch, files, ["pack", name, "--outdir", "out"])


# Cells at the edge of the float range, rescaled: (unit, cell, target).
RESCALES = {
    "1e305-km-to-mm": ("km", "1e305", "mm"),
    "max-float-m-to-mm": ("m", "1.7976931348623157e308", "mm"),
    "subnormal-mV-to-V": ("mV", "5e-324", "V"),
    "long-int-mm-to-m": ("mm", "1" + "0" * 399 + "1", "m"),
    "max-exponent-ym-to-Ym": ("ym^99", "1e-300", "Ym^99"),
}


@pytest.mark.parametrize("name", sorted(RESCALES))
def test_rescale_at_the_float_edge(tmp_path, monkeypatch, name):
    unit, cell, target = RESCALES[name]
    run(tmp_path, monkeypatch,
        {"coll/data.json": descriptor(u_unit=unit),
         "coll/data.csv": f"t,U,T\n0,{cell},275\n"},
        ["rescale", "coll", "data", "--field", "U", "--unit", target,
         "--outdir", "out"])


@pytest.mark.parametrize("argv", [["rescale", "coll", "data"],
                                  ["ls"], ["frobnicate"],
                                  ["watch", "--dir", "coll",
                                   "--template", "missing.yaml",
                                   "--quiescence-ms", "x"]],
                         ids=" ".join)
def test_usage_errors_exit_2(tmp_path, monkeypatch, argv):
    assert run(tmp_path, monkeypatch, {}, argv)[0] == 2


# --- one test per fixed input ------------------------------------------------

def test_skip_errors_skips_a_5000_digit_exponent(tmp_path, monkeypatch,
                                                  caplog):
    with caplog.at_level("WARNING", logger="unitpack.collection"):
        code, out, err = run(
            tmp_path, monkeypatch,
            {"coll/data.json": descriptor(u_unit=HUGE_EXPONENT),
             "coll/data.csv": DEMO_CSV},
            ["ls", "coll", "--skip-errors"])
    assert (code, out) == (0, "")
    assert "skipping coll/data.json: INVALID_UNIT: " in caplog.text


def test_skip_errors_skips_a_descriptor_with_a_repeated_key(
        tmp_path, monkeypatch, caplog):
    files = {"coll/data.json": REPEATED_USER, "coll/data.csv": DEMO_CSV}
    with caplog.at_level("WARNING", logger="unitpack.collection"):
        code, out, err = run(tmp_path, monkeypatch, files,
                             ["ls", "coll", "--skip-errors"])
    assert (code, out) == (0, "")
    assert "skipping coll/data.json: DESCRIPTOR_PARSE_ERROR: " \
        "bad JSON in coll/data.json: duplicate key 'user' in one map" \
        in caplog.text
    code, out, err = run(tmp_path, monkeypatch, files,
                         ["show", "coll", "data", "--path", "user"])
    assert (code, out) == (1, "")
    assert err.startswith("COLLECTION_LOAD_ERROR: ")
    assert "DESCRIPTOR_PARSE_ERROR: bad JSON in coll/data.json: " \
        "duplicate key 'user'" in err


@pytest.mark.parametrize("number", NON_FINITE_JSON)
def test_skip_errors_skips_a_descriptor_with_a_non_finite_number(
        tmp_path, monkeypatch, caplog, number):
    files = {"coll/data.json": with_metadata(f'{{"x": {number}}}'),
             "coll/data.csv": DEMO_CSV}
    with caplog.at_level("WARNING", logger="unitpack.collection"):
        code, out, err = run(tmp_path, monkeypatch, files,
                             ["ls", "coll", "--skip-errors"])
    assert (code, out) == (0, "")
    assert "skipping coll/data.json: DESCRIPTOR_PARSE_ERROR: bad JSON in " \
        f"coll/data.json: the number {number} is not finite" in caplog.text
    code, out, err = run(tmp_path, monkeypatch, files,
                         ["show", "coll", "data", "--path", "x"])
    assert (code, out) == (1, "")
    assert f"DESCRIPTOR_PARSE_ERROR: bad JSON in coll/data.json: " \
        f"the number {number} is not finite" in err


def test_a_template_holding_a_non_finite_number_is_template_parse_error(
        tmp_path, monkeypatch):
    files = {"w/data.csv": DEMO_CSV, "template.yaml": "x: .inf\n"}
    code, out, err = run(tmp_path, monkeypatch, files,
                         ["watch", "--dir", "w", "--template",
                          "template.yaml", "--backfill"])
    assert (code, out) == (1, "")
    assert err == "TEMPLATE_PARSE_ERROR: template.yaml: the number .inf " \
        "is not finite (line 1, column 4)\n"
    assert not (tmp_path / "w" / "data.csv.meta.yaml").exists()


def test_pack_of_a_non_utf8_name_is_invalid_identifier(tmp_path,
                                                       monkeypatch):
    name = "bad\udcff.csv"  # the file name b"bad\xff.csv"
    code, out, err = run(tmp_path, monkeypatch,
                         {name: DEMO_CSV, name + ".meta.yaml": DEMO_META},
                         ["pack", name, "--outdir", "out"])
    assert (code, out) == (1, "")
    assert err.startswith("INVALID_IDENTIFIER: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_rescale_beyond_the_float_range_is_out_of_range(tmp_path,
                                                        monkeypatch):
    code, out, err = run(tmp_path, monkeypatch,
                         {"coll/data.json": descriptor(u_unit="km"),
                          "coll/data.csv": "t,U,T\n0,1e305,275\n"},
                         ["rescale", "coll", "data", "--field", "U",
                          "--unit", "mm", "--outdir", "out"])
    assert (code, out) == (1, "")
    assert err.startswith("OUT_OF_RANGE: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# Generated inputs: unit strings and CSV cells drawn by hypothesis, each
# run through the same promise in a fresh directory.

_UNIT_PIECES = ["m", "k", "M", "u", "µ", "V", "s", "A", "K", "Ohm", "Ω",
                "g", "1", "0", "^", "-", "+", "2", "9", "99", "100", "*",
                "/", " ", ".", "%", "e"]
unit_texts = st.one_of(st.lists(st.sampled_from(_UNIT_PIECES), max_size=8)
                       .map("".join), st.text(max_size=8))
cell_texts = st.one_of(st.floats().map(repr),
                       st.integers(-10**30, 10**30).map(str),
                       st.sampled_from(["", "1e999", "-1e400", "5e-324",
                                        "1,5", "NaN", "9" * 400, " 1",
                                        "1_0", "١٢"]),
                       st.text(max_size=6))
csv_texts = st.lists(st.lists(cell_texts, min_size=2, max_size=4),
                     max_size=5).map(
    lambda rows: "t,U,T\n" + "".join(_csv_line(row) for row in rows))
generated = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _csv_line(cells) -> str:
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(cells)
    return line.getvalue()


def run_fresh(files, argv):
    """`run` in a fresh directory with its own monkeypatch, as hypothesis
    reruns a test body many times within one test."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        return run(Path(tmp), monkeypatch, files, argv)


@generated
@given(unit_texts)
def test_generated_target_unit(unit):
    run_fresh({"coll/data.json": descriptor(), "coll/data.csv": DEMO_CSV},
              ["rescale", "coll", "data", "--field", "U", "--unit", unit,
               "--outdir", "out"])


@generated
@given(unit_texts, unit_texts)
def test_generated_descriptor_unit(field_unit, target):
    files = {"coll/data.json": descriptor(u_unit=field_unit),
             "coll/data.csv": DEMO_CSV}
    run_fresh(files, ["ls", "coll"])
    run_fresh(files, ["rescale", "coll", "data", "--field", "U", "--unit",
                      target, "--outdir", "out"])


@generated
@given(csv_texts)
def test_generated_csv_cells(text):
    run_fresh({"data.csv": text, "data.csv.meta.yaml": DEMO_META},
              ["pack", "data.csv", "--outdir", "out"])
    run_fresh({"coll/data.json": descriptor(), "coll/data.csv": text},
              ["rescale", "coll", "data", "--field", "U", "--unit", "V",
               "--outdir", "out"])
    run_fresh({"coll/data.json": descriptor(), "coll/data.csv": text},
              REPORT)
