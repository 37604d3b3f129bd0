import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from unitpack import cli, metadata
from unitpack.datapackage import Entry, save_entry
from unitpack.metadata import MetadataDoc

from conftest import material_entry, write_demo_fixture

SCHEMA = """{
  "type": "object",
  "required": ["user"],
  "properties": {"user": {"type": "string"}},
  "additionalProperties": false
}
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _packed(tmp_path, capsys):
    write_demo_fixture(tmp_path)
    outdir = tmp_path / "generated"
    code, _, _ = run(capsys, "pack", str(tmp_path / "data.csv"),
                     "--outdir", str(outdir))
    assert code == 0
    return outdir


# -------------------------------
# usage / help contract
# -------------------------------

def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["watch", "--template", "t.yaml"])  # --dir missing
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["watch", "pack", "validate", "ls",
                                     "show", "rescale", "describe",
                                     "report"])
def test_every_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    assert "usage" in capsys.readouterr().out


# -------------------------------
# pack
# -------------------------------

def test_pack_writes_package(tmp_path, capsys):
    write_demo_fixture(tmp_path)
    outdir = tmp_path / "generated"
    code, out, _ = run(capsys, "pack", str(tmp_path / "data.csv"),
                       "--outdir", str(outdir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("data.json")
    assert lines[1].endswith("data.csv")
    assert (outdir / "data.json").is_file()
    assert (outdir / "data.csv").is_file()


def test_pack_missing_meta(tmp_path, capsys):
    (tmp_path / "data.csv").write_text("t\n0\n", encoding="utf-8")
    code, _, err = run(capsys, "pack", str(tmp_path / "data.csv"))
    assert code == 1
    assert err.startswith("META_NOT_FOUND:")


def test_pack_with_loader(tmp_path, capsys):
    wild = tmp_path / "run7.txt"
    wild.write_text("preamble 1\npreamble 2\npreamble 3\n"
                    "voltage [mV],T\n1.5,275\n2.5,276\n"
                    "footer A\nfooter B\n", encoding="utf-8")
    meta = tmp_path / "run7.txt.meta.yaml"
    meta.write_text("figure description:\n  fields:\n"
                    "    - name: U\n      unit: mV\n", encoding="utf-8")
    loader = tmp_path / "loader.yaml"
    loader.write_text('header_row: 3\nskip_footer: 2\nrename:\n'
                      '  "voltage [mV]": "U"\n', encoding="utf-8")
    outdir = tmp_path / "out"
    code, _, _ = run(capsys, "pack", str(wild), "--loader", str(loader),
                     "--outdir", str(outdir))
    assert code == 0
    descriptor = json.loads(
        (outdir / "run7.json").read_text(encoding="utf-8"))
    fields = descriptor["resources"][0]["schema"]["fields"]
    assert fields[0]["name"] == "U"
    assert fields[0]["unit"] == "mV"


def test_pack_ragged_csv_names_the_file(tmp_path, capsys):
    csv_path, _ = write_demo_fixture(tmp_path)
    with open(csv_path, "a", encoding="utf-8") as handle:
        handle.write("9,9\n")
    loader = tmp_path / "loader.yaml"
    loader.write_text("header_row: 0\n", encoding="utf-8")
    for extra in ([], ["--loader", str(loader)]):
        code, _, err = run(capsys, "pack", str(csv_path), "--outdir",
                           str(tmp_path / "out"), *extra)
        assert code == 1
        assert err.startswith(f"RAGGED_ROW: {csv_path}: row 3 ")


def test_non_string_unit_is_invalid_unit(tmp_path, capsys):
    csv_path, meta_path = write_demo_fixture(tmp_path)
    meta_path.write_text("figure description:\n  fields:\n"
                         "    - name: t\n      unit: 1\n", encoding="utf-8")
    code, _, err = run(capsys, "pack", str(csv_path), "--outdir",
                       str(tmp_path / "out"))
    assert code == 1 and err.startswith("INVALID_UNIT:")
    (tmp_path / "clean").mkdir()
    clean = _packed(tmp_path / "clean", capsys)
    descriptor = json.loads(
        (clean / "data.json").read_text(encoding="utf-8"))
    descriptor["resources"][0]["schema"]["fields"][0]["unit"] = 5
    (clean / "data.json").write_text(json.dumps(descriptor), encoding="utf-8")
    code, _, err = run(capsys, "ls", str(clean))
    assert code == 1 and err.startswith("COLLECTION_LOAD_ERROR:")
    assert "bad unit 5" in err
    assert run(capsys, "ls", str(clean), "--skip-errors")[:2] == (0, "")


def test_pack_mistyped_loader_spec(tmp_path, capsys):
    csv_path, _ = write_demo_fixture(tmp_path)
    loader = tmp_path / "loader.yaml"
    loader.write_text("header_row: abc\n", encoding="utf-8")
    code, _, err = run(capsys, "pack", str(csv_path), "--loader",
                       str(loader), "--outdir", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("LOADER_SPEC_INVALID:")


def test_pack_into_an_existing_file_is_one_io_error_line(tmp_path, capsys):
    csv_path, _ = write_demo_fixture(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    code, out, err = run(capsys, "pack", str(csv_path), "--outdir",
                         str(taken))
    assert (code, out) == (1, "")
    assert err.startswith("IO_ERROR: ") and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def _pack_typed(tmp_path, capsys, cells, field_type):
    """`pack` of a CSV whose column ``n`` holds `cells` and is declared
    `field_type` (no type key if None)."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,n\n" + "".join(f"{i},{cell}\n"
                                           for i, cell in enumerate(cells)),
                        encoding="utf-8")
    declared = "" if field_type is None else f"\n      type: {field_type}"
    (tmp_path / "data.csv.meta.yaml").write_text(
        f"figure description:\n  fields:\n    - name: n{declared}\n",
        encoding="utf-8")
    return run(capsys, "pack", str(csv_path), "--outdir",
               str(tmp_path / "out"))


@pytest.mark.parametrize("cells, field_type, cell", [
    (["1.5", "n/a", "x"], "number", "'n/a'"),
    (["1", "", "1.5", "x"], "integer", "1.5"),
    (["1", "1e3"], "integer", "1000.0"),
    (["1", "x", "2.5"], "integer", "'x'"),
])
def test_pack_refuses_a_cell_its_declared_type_does_not_hold(
        tmp_path, capsys, cells, field_type, cell):
    kind = "non-integer" if field_type == "integer" else "non-numeric"
    assert _pack_typed(tmp_path, capsys, cells, field_type) == (
        1, "", f"NON_NUMERIC_CELL: field 'n' holds {kind} cell {cell}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cells, field_type, written", [
    (["1", "", "-2"], "integer", "integer"),
    (["1", "", "2.5", "1e3"], "number", "number"),
    (["1", "n/a"], "string", "string"),
    (["1", "n/a"], None, "string"),
    (["1", "", "2.5"], None, "number"),
])
def test_pack_keeps_a_declared_type_its_cells_hold(tmp_path, capsys, cells,
                                                    field_type, written):
    code, _, err = _pack_typed(tmp_path, capsys, cells, field_type)
    assert (code, err) == (0, "")
    descriptor = json.loads((tmp_path / "out" / "data.json").read_text(
        encoding="utf-8"))
    fields = descriptor["resources"][0]["schema"]["fields"]
    assert [field["type"] for field in fields] == ["number", written]


@pytest.mark.parametrize("argv", [
    ["validate", "missing.yaml", "--schema", "schema.json"],
    ["validate", "data.csv.meta.yaml", "--schema", "missing.yaml"],
    ["describe", "generated", "--profile", "missing.yaml"],
    ["pack", "data.csv", "--loader", "missing.yaml", "--outdir", "out"],
], ids=" ".join)
def test_a_missing_document_is_one_io_error_line(tmp_path, capsys,
                                                 monkeypatch, argv):
    _packed(tmp_path, capsys)
    (tmp_path / "schema.json").write_text(SCHEMA, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (
        1, "", "IO_ERROR: [Errno 2] No such file or directory: "
               "'missing.yaml'\n")


# -------------------------------
# validate
# -------------------------------

def test_validate_ok(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text("user: Max Doe\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(SCHEMA, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(doc), "--schema", str(schema))
    assert code == 0
    assert out == ""


def test_validate_missing_required(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text("{}\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(SCHEMA, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(doc), "--schema", str(schema))
    assert code == 1
    assert out == "user\tmissing required key 'user'\n"


def test_validate_unsupported_keyword(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text("user: x\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text('{"$ref": "#/x"}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(doc), "--schema", str(schema))
    assert code == 1
    assert err.startswith("SCHEMA_UNSUPPORTED:")


@pytest.mark.parametrize("broken", ["doc", "schema"])
def test_validate_names_the_file_that_does_not_parse(tmp_path, capsys,
                                                     broken):
    paths = {"doc": tmp_path / "ok.yaml", "schema": tmp_path / "ok.json"}
    paths["doc"].write_text("user: Max Doe\n", encoding="utf-8")
    paths["schema"].write_text(SCHEMA, encoding="utf-8")
    paths[broken] = tmp_path / "bad.yaml"
    paths[broken].write_text("user: [\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(paths["doc"]), "--schema",
                         str(paths["schema"]))
    assert (code, out) == (1, "")
    assert err.startswith(f"PARSE_ERROR: {paths[broken]}: ")
    assert err.count("\n") == 1


# -------------------------------
# ls / show / rescale / describe / report
# -------------------------------

def test_ls_lists_identifiers(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, out, _ = run(capsys, "ls", str(outdir))
    assert code == 0
    assert out == "data\n"


def test_ls_with_filter(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, out, _ = run(capsys, "ls", str(outdir),
                       "--filter", 'user == "Max Doe"')
    assert (code, out) == (0, "data\n")
    code, out, _ = run(capsys, "ls", str(outdir),
                       "--filter", 'user == "Nobody"')
    assert (code, out) == (0, "")


# `true`, `false` and `null` are the JSON words; a path that is absent
# never matches, not even `!= null`.
@pytest.mark.parametrize("clause, listed", [
    ("k == true", "yes\n"),
    ("k == false", "no\n"),
    ("k == null", "nil\n"),
    ("k != null", "no\none\nyes\n"),
    ("k != true", "nil\nno\none\n"),
])
def test_ls_filter_by_word_literals(tmp_path, capsys, clause, listed):
    base = material_entry("x", "Pt")
    values = {"yes": {"k": True}, "no": {"k": False}, "nil": {"k": None},
              "one": {"k": 1}, "absent": {}}
    for identifier, root in values.items():
        save_entry(Entry(identifier=identifier, fields=base.fields,
                         table=base.table, metadata=MetadataDoc(root=root)),
                   tmp_path)
    code, out, _ = run(capsys, "ls", str(tmp_path), "--filter", clause)
    assert (code, out) == (0, listed)


def test_show_full_metadata_is_json(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, out, _ = run(capsys, "show", str(outdir), "data")
    assert code == 0
    assert json.loads(out)["user"] == "Max Doe"


def test_show_path_node(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, out, _ = run(capsys, "show", str(outdir), "data",
                       "--path", "user")
    assert code == 0
    assert out.strip() == '"Max Doe"'


def test_show_unknown_id_lists_candidates(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, _, err = run(capsys, "show", str(outdir), "missing")
    assert code == 1
    assert err.startswith("NOT_FOUND:")
    assert "data" in err


def test_rescale_roundtrip_through_cli(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    rescaled_dir = tmp_path / "rescaled"
    code, out, _ = run(capsys, "rescale", str(outdir), "data",
                       "--field", "U", "--unit", "V",
                       "--outdir", str(rescaled_dir))
    assert code == 0
    descriptor = json.loads(
        (rescaled_dir / "data.json").read_text(encoding="utf-8"))
    fields = descriptor["resources"][0]["schema"]["fields"]
    assert [f for f in fields if f["name"] == "U"][0]["unit"] == "V"
    first_cell = (rescaled_dir / "data.csv").read_text(
        encoding="utf-8").splitlines()[1]
    assert first_cell.split(",")[1] == "0.00101"


def test_rescale_dimension_mismatch(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, _, err = run(capsys, "rescale", str(outdir), "data",
                       "--field", "U", "--unit", "K",
                       "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("DIMENSION_MISMATCH:")


def test_describe_json(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    code, out, _ = run(capsys, "describe", str(outdir))
    assert code == 0
    summary = json.loads(out)
    assert summary["number of entries"] == 1
    assert summary["materials"] == []


def test_describe_with_profile(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    profile = tmp_path / "profile.yaml"
    profile.write_text("name: demo\ndescribe:\n  - label: users\n"
                       "    path: user\n", encoding="utf-8")
    code, out, _ = run(capsys, "describe", str(outdir),
                       "--profile", str(profile))
    assert code == 0
    assert json.loads(out) == {"number of entries": 1,
                               "users": ["Max Doe"]}


def test_describe_pretty_spells_each_value_as_the_json_does(tmp_path,
                                                            capsys):
    base = material_entry("x", "Pt")
    for identifier, material in (("nil", None), ("yes", True), ("one", 1.5),
                                 ("pt", "Pt")):
        root = {"system": {"electrodes": {"working_electrode":
                                          {"material": material}}}}
        save_entry(Entry(identifier=identifier, fields=base.fields,
                         table=base.table, metadata=MetadataDoc(root=root)),
                   tmp_path)
    code, out, _ = run(capsys, "describe", str(tmp_path))
    assert (code, json.loads(out)["materials"]) == (0, [1.5, "Pt", None,
                                                        True])
    code, out, _ = run(capsys, "describe", str(tmp_path), "--pretty")
    assert (code, out) == (0, "number of entries: 4\n"
                              "materials: 1.5, Pt, null, true\n"
                              "references: \n")


def test_report_cli(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    site = tmp_path / "site"
    code, _, err = run(capsys, "report", str(outdir), "--out", str(site),
                       "--x", "t", "--y", "U", "--column", "user=user")
    assert code == 0
    assert (site / "index.md").is_file()
    assert (site / "entries" / "data.md").is_file()
    assert (site / "plots" / "data.svg").is_file()


def test_ragged_csv_body_fails_only_commands_that_read_rows(tmp_path,
                                                          capsys):
    clean = _packed(tmp_path, capsys)
    ragged = tmp_path / "ragged"
    shutil.copytree(clean, ragged)
    with open(ragged / "data.csv", "a", encoding="utf-8") as handle:
        handle.write("9,9\n")
    for argv in (["ls"], ["ls", "--skip-errors"],
                 ["ls", "--filter", 'user == "Max Doe"'], ["show", "data"],
                 ["show", "data", "--path", "user"], ["describe"],
                 ["describe", "--pretty"]):
        got = run(capsys, argv[0], str(ragged), *argv[1:])
        assert got == run(capsys, argv[0], str(clean), *argv[1:])
        assert got[0] == 0
    code, _, err = run(capsys, "rescale", str(ragged), "data", "--field",
                       "U", "--unit", "V", "--outdir", str(tmp_path / "r"))
    assert code == 1 and err.startswith("RAGGED_ROW:")
    code, _, err = run(capsys, "report", str(ragged), "--out",
                       str(tmp_path / "site"), "--x", "t", "--y", "U")
    assert code == 1 and err.startswith("RAGGED_ROW:")


def test_ls_skips_undecodable_descriptor(tmp_path, capsys):
    clean = _packed(tmp_path, capsys)
    bad = tmp_path / "bad"
    shutil.copytree(clean, bad)
    json_path = bad / "data.json"
    json_path.write_bytes(json_path.read_bytes().replace(b"Max", b"\xff"))
    code, out, err = run(capsys, "ls", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("COLLECTION_LOAD_ERROR:") and "decode" in err
    code, out, err = run(capsys, "ls", str(bad), "--skip-errors")
    assert (code, out) == (0, "")


def test_ls_skips_an_unreadable_descriptor_as_io_error(tmp_path, capsys,
                                                      monkeypatch, caplog):
    # Tests may run as root, whom `chmod 000` does not stop, so the one
    # descriptor's `os.open` is made to fail instead.
    for identifier in ("a", "b"):
        save_entry(material_entry(identifier, "Pt"), tmp_path / "coll")
    denied = str(tmp_path / "coll" / "a.json")
    os_open = os.open

    def open_(path, *args, **kwargs):
        if str(path) == denied:
            raise PermissionError(13, "Permission denied", str(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(metadata.os, "open", open_)
    code, out, err = run(capsys, "ls", str(tmp_path / "coll"))
    assert (code, out) == (1, "")
    assert err == (f"COLLECTION_LOAD_ERROR: 1 descriptor(s) failed to load: "
                   f"{denied}: IO_ERROR: [Errno 13] Permission denied: "
                   f"'{denied}'\n")
    with caplog.at_level("WARNING", logger="unitpack.collection"):
        code, out, err = run(capsys, "ls", str(tmp_path / "coll"),
                             "--skip-errors")
    assert (code, out, err) == (0, "b\n", "")
    assert f"skipping {denied}: IO_ERROR: " in caplog.text


# -------------------------------
# watch --backfill
# -------------------------------

def test_watch_backfill(tmp_path, capsys):
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    (watch_dir / "a.csv").write_text("x", encoding="utf-8")
    (watch_dir / "b.csv").write_text("y", encoding="utf-8")
    template = tmp_path / "template.yaml"
    template.write_text("user: Max Doe\n", encoding="utf-8")
    code, out, err = run(capsys, "watch", "--dir", str(watch_dir),
                         "--template", str(template), "--backfill")
    assert code == 0
    assert "backfilled 2 file(s)" in err
    assert (watch_dir / "a.csv.meta.yaml").is_file()
    assert (watch_dir / "b.csv.meta.yaml").is_file()
    # no daemon: the call returned on its own


def test_bare_watch_uses_the_watch_config_defaults(tmp_path, capsys,
                                                  monkeypatch):
    built = []
    monkeypatch.setattr(cli.autotag, "watch",
                        lambda cfg, **kwargs: built.append(cfg))
    code, _, _ = run(capsys, "watch", "--dir", "in", "--template", "t.yaml")
    assert (code, built) == (0, [cli.autotag.WatchConfig("in", "t.yaml")])


def test_backfill_goes_on_past_a_name_that_is_not_utf8(tmp_path):
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    names = ["a.csv", os.fsdecode(b"bad\xff.csv"), "\u00e9.csv"]
    for name in names:
        (watch_dir / name).write_text("x", encoding="utf-8")
    template = tmp_path / "template.yaml"
    template.write_text("user: Max Doe\n", encoding="utf-8")
    process = subprocess.run(
        [sys.executable, "-X", "faulthandler", "-m", "unitpack.cli",
         "watch", "--dir", str(watch_dir), "--template", str(template),
         "--backfill"],
        capture_output=True, timeout=60)
    assert process.returncode == 0, process.stderr
    assert b"backfilled 3 file(s)" in process.stderr
    log = (watch_dir / "autotag.log.jsonl").read_bytes()
    for output in (process.stdout, log):
        records = [json.loads(line)
                   for line in output.decode("utf-8").splitlines()]
        assert sorted(r["source_path"] for r in records) == \
            sorted(str(watch_dir / name) for name in names)
    sidecar = (watch_dir / (names[1] + ".meta.yaml")).read_text("utf-8")
    assert sidecar.startswith("user: Max Doe\nautotag:\n")
    assert '\n  file: "bad\\uDCFF.csv"\n' in sidecar


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_ls_of_a_fifo_csv_is_missing_csv_at_once(tmp_path, capsys):
    # Opening a FIFO for reading blocks until a writer comes, so the CLI
    # runs in a child with a timeout: a regression fails, not hangs.  A
    # FIFO with a descriptor's name is not a descriptor.
    outdir = _packed(tmp_path, capsys)
    csv_path = outdir / "data.csv"
    csv_path.unlink()
    os.mkfifo(csv_path)
    os.mkfifo(outdir / "fifo.json")
    process = subprocess.run(
        [sys.executable, "-m", "unitpack.cli", "ls", str(outdir)],
        capture_output=True, encoding="utf-8", timeout=30)
    json_path = outdir / "data.json"
    assert process.returncode == 1
    assert process.stderr == (
        f"COLLECTION_LOAD_ERROR: 1 descriptor(s) failed to load: "
        f"{json_path}: MISSING_CSV: {json_path}: resource CSV not found: "
        f"{csv_path}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_an_interrupted_process_ends_as_sigint_without_a_traceback(tmp_path):
    # `pack` of a FIFO blocks until a writer comes, then in its read.  The
    # writer is opened only once the child has opened the FIFO, so the
    # interrupt arrives inside the command.
    csv_path, _ = write_demo_fixture(tmp_path)
    csv_path.unlink()
    os.mkfifo(csv_path)
    with subprocess.Popen(
            [sys.executable, "-X", "faulthandler", "-m", "unitpack.cli",
             "pack", str(csv_path), "--outdir", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        deadline = time.monotonic() + 20
        while True:
            try:
                writer = os.open(csv_path, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:  # ENXIO: no reader yet
                if time.monotonic() > deadline or process.poll() is not None:
                    process.kill()
                    pytest.fail("the child never opened the FIFO: "
                                f"{process.communicate()[1]!r}")
                time.sleep(0.05)
        try:
            process.send_signal(signal.SIGINT)
            _, stderr = process.communicate(timeout=20)
        finally:
            os.close(writer)
    assert process.returncode == -signal.SIGINT, stderr
    assert stderr == b"interrupted\n"  # no traceback


def test_watch_setup_error_exits_1(tmp_path, capsys):
    template = tmp_path / "template.yaml"
    template.write_text("user: x\n", encoding="utf-8")
    code, _, err = run(capsys, "watch", "--dir", str(tmp_path / "nope"),
                       "--template", str(template), "--backfill")
    assert code == 1
    assert err.startswith("WATCH_SETUP_ERROR:")
    for extra in (["--backfill"], []):
        code, _, err = run(capsys, "watch", "--dir", str(tmp_path),
                           "--template", str(tmp_path / "missing.yaml"),
                           *extra)
        assert code == 1
        assert err.startswith("WATCH_SETUP_ERROR: template not found")


def _watch_tag_then_signal(tmp_path, signum, ignored=()):
    """Run `unitpack watch` in a child until it has tagged one new file,
    then send it `signum`; return the watched directory, the child's exit
    code and its stderr.  A child that outlives the signal is sent
    SIGABRT, so that faulthandler writes its stack to the stderr that
    the failure shows.  The child starts with the `ignored` signals
    ignored, as a shell starts a background job, and is sent each of
    them first; it must still be running after them."""

    def ignore():
        for other in ignored:
            signal.signal(other, signal.SIG_IGN)

    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    template = tmp_path / "template.yaml"
    template.write_text("user: Max Doe\n", encoding="utf-8")

    with subprocess.Popen(
            [sys.executable, "-X", "faulthandler", "-m", "unitpack.cli",
             "watch", "--dir", str(watch_dir), "--template", str(template),
             "--quiescence-ms", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=ignore) as process:
        try:
            time.sleep(0.5)
            (watch_dir / "data.csv").write_text("t\n0\n", encoding="utf-8")
            deadline = time.monotonic() + 8
            meta = watch_dir / "data.csv.meta.yaml"
            while time.monotonic() < deadline and not meta.exists():
                time.sleep(0.05)
            assert meta.exists()
            if ignored:
                for other in ignored:
                    process.send_signal(other)
                time.sleep(0.5)
                assert process.poll() is None, "an ignored signal stopped it"
            process.send_signal(signum)
            try:
                _, stderr = process.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                process.send_signal(signal.SIGABRT)
                _, stderr = process.communicate(timeout=10)
                pytest.fail(f"the watcher outlived signal {signum!r}:\n"
                            f"{stderr.decode('utf-8', 'replace')}")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    return watch_dir, process.returncode, stderr.decode("utf-8", "replace")


def test_watch_daemon_tags_then_exits_zero_on_interrupt(tmp_path):
    watch_dir, code, stderr = _watch_tag_then_signal(tmp_path, signal.SIGINT)
    assert code == 0, stderr
    assert (watch_dir / "autotag.log.jsonl").is_file()


def test_watch_daemon_stops_cleanly_on_sigterm(tmp_path):
    watch_dir, code, stderr = _watch_tag_then_signal(tmp_path,
                                                     signal.SIGTERM)
    assert code == 0, stderr
    log = (watch_dir / "autotag.log.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in log.splitlines()]
    assert [r["event"] for r in records] == ["tagged"]
    assert list(watch_dir.rglob(".*.meta.yaml.*.tmp")) == []


def test_watch_daemon_started_with_sigint_ignored_keeps_ignoring_it(
        tmp_path):
    watch_dir, code, stderr = _watch_tag_then_signal(
        tmp_path, signal.SIGTERM, ignored=(signal.SIGINT,))
    assert code == 0, stderr
    assert (watch_dir / "autotag.log.jsonl").is_file()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_watch_keeps_its_last_template_when_a_fifo_replaces_it(tmp_path):
    # Opening the FIFO would block the watcher's loop for good, so it runs
    # in a child that gets SIGABRT (and writes its stack) if it hangs.
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    template = tmp_path / "template.yaml"
    template.write_text("user: Max Doe\n", encoding="utf-8")
    log = watch_dir / "autotag.log.jsonl"

    def wait_for(predicate):
        deadline = time.monotonic() + 8
        while time.monotonic() < deadline:
            records = [json.loads(line) for line in log.read_text(
                encoding="utf-8").splitlines()] if log.exists() else []
            if predicate(records):
                return records
            time.sleep(0.05)
        raise AssertionError(f"log never matched: {records}")

    with subprocess.Popen(
            [sys.executable, "-X", "faulthandler", "-m", "unitpack.cli",
             "watch", "--dir", str(watch_dir), "--template", str(template),
             "--quiescence-ms", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        try:
            time.sleep(0.5)
            (watch_dir / "one.csv").write_text("t\n0\n", encoding="utf-8")
            [first] = wait_for(lambda records: len(records) == 1)
            os.mkfifo(tmp_path / "fifo")
            os.replace(tmp_path / "fifo", template)
            try:
                wait_for(lambda records: len(records) == 2)
                (watch_dir / "two.csv").write_text("t\n0\n",
                                                   encoding="utf-8")
                records = wait_for(lambda records: len(records) == 3)
                process.send_signal(signal.SIGTERM)
                _, stderr = process.communicate(timeout=5)
            except (AssertionError, subprocess.TimeoutExpired):
                process.send_signal(signal.SIGABRT)
                _, stderr = process.communicate(timeout=10)
                pytest.fail("the watcher hung on the FIFO:\n"
                            + stderr.decode("utf-8", "replace"))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    assert process.returncode == 0, stderr
    assert [(r["event"], r.get("code")) for r in records] == [
        ("tagged", None), ("error", "TEMPLATE_PARSE_ERROR"), ("tagged", None)]
    assert records[2]["template_version"] == first["template_version"]
    assert (watch_dir / "two.csv.meta.yaml").read_text(
        encoding="utf-8").startswith("user: Max Doe\nautotag:\n")


def test_watch_in_process_keeps_the_callers_signal_handlers(tmp_path,
                                                            capsys):
    template = tmp_path / "template.yaml"
    template.write_text("user: Max Doe\n", encoding="utf-8")
    signals = (signal.SIGINT, signal.SIGTERM)
    before = [signal.getsignal(signum) for signum in signals]
    interrupt = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    interrupt.start()
    try:
        code, _, err = run(capsys, "watch", "--dir", str(tmp_path),
                           "--template", str(template))
    finally:
        interrupt.cancel()
        interrupt.join()
    assert (code, err) == (0, "")
    assert [signal.getsignal(signum) for signum in signals] == before


# -------------------------------
# exit-code matrix
# -------------------------------

def test_exit_code_matrix(tmp_path, capsys):
    outdir = _packed(tmp_path, capsys)
    # 0: success
    assert run(capsys, "ls", str(outdir))[0] == 0
    # 1: domain error
    assert run(capsys, "ls", str(tmp_path / "missing"))[0] == 1
    # 2: usage error
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["ls"])
    assert excinfo.value.code == 2


def test_an_interrupted_command_is_not_a_success(tmp_path, monkeypatch):
    # An interrupt propagates, so the process ends as SIGINT ends it
    # (status 130 in a shell), not with status 0.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli.collection, "from_directory", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["ls", str(tmp_path)])
