"""Byte-for-byte pin of the command line's output.

Each case runs one ``unitpack`` command from a fixed working directory
holding the three-entry material collection (``coll/``), the worked
example (``data.csv``), a nonstandard instrument file with its loader
spec (``run7.txt``, ``loader.yaml``) and a small document and schema.
``golden/cli/<case>.txt`` holds the exit code, stdout and stderr; for a
command that writes a package, ``golden/cli/<case>/`` holds every file
it wrote under ``out/``.  Any change to them is a change to the
command line's published behaviour.
"""

import json
from pathlib import Path

import pytest

from unitpack import cli, save_entry

from conftest import material_entry, strict_json, write_demo_fixture

GOLDEN = Path(__file__).parent / "golden" / "cli"
PT = 'system.electrodes.working_electrode.material == "Pt"'

CASES = {
    "ls": ["ls", "coll"],
    "ls-filter": ["ls", "coll", "--filter", PT],
    "ls-error": ["ls", "missing"],
    "ls-escaping-path": ["ls", "escaping"],
    "show": ["show", "coll", "cv-pt-2"],
    "show-path": ["show", "coll", "cv-pt-2", "--path", "system.electrodes"],
    "show-error": ["show", "coll", "nope"],
    "describe": ["describe", "coll"],
    "describe-pretty": ["describe", "coll", "--pretty"],
    "describe-error": ["describe", "missing"],
    "describe-profile-error": ["describe", "coll", "--profile",
                               "profile.yaml"],
    "rescale": ["rescale", "coll", "cv-au-1", "--field", "U", "--unit", "V",
                "--outdir", "out"],
    "rescale-error": ["rescale", "coll", "cv-au-1", "--field", "U",
                      "--unit", "K", "--outdir", "out"],
    "validate-ok": ["validate", "doc.yaml", "--schema", "schema.json"],
    "validate-violations": ["validate", "bad.yaml", "--schema",
                            "schema.json"],
    "validate-error": ["validate", "doc.yaml", "--schema", "ref.json"],
    "pack": ["pack", "data.csv", "--outdir", "out"],
    "pack-loader": ["pack", "run7.txt", "--loader", "loader.yaml",
                    "--outdir", "out"],
    "pack-error": ["pack", "loader.yaml"],
    "pack-csv-error": ["pack", "latin1.csv"],
    "report-error": ["report", "coll", "--out", "site", "--x", "t",
                     "--y", "U", "--column", "no-separator"],
    "watch-error": ["watch", "--dir", "missing", "--template", "doc.yaml",
                    "--backfill"],
}

SCHEMA = """{
  "type": "object",
  "required": ["user"],
  "properties": {"user": {"type": "string"}},
  "additionalProperties": false
}
"""


def write_inputs(directory: Path) -> None:
    for identifier, material, user in (("cv-pt-1", "Pt", "Max Doe"),
                                       ("cv-pt-2", "Pt", "Ada Lovelace"),
                                       ("cv-au-1", "Au", "Max Doe")):
        save_entry(material_entry(identifier, material, user=user),
                   directory / "coll")
    write_demo_fixture(directory)
    (directory / "run7.txt").write_text(
        "preamble 1\npreamble 2\npreamble 3\nvoltage [mV],T\n1.5,275\n"
        "2.5,276\nfooter A\nfooter B\n", encoding="utf-8")
    (directory / "run7.txt.meta.yaml").write_text(
        "figure description:\n  fields:\n    - name: U\n      unit: mV\n"
        "    - name: T\n      unit: K\n", encoding="utf-8")
    (directory / "loader.yaml").write_text(
        'header_row: 3\nskip_footer: 2\nrename:\n  "voltage [mV]": "U"\n',
        encoding="utf-8")
    # A CSV saved as Latin-1, not UTF-8.
    (directory / "latin1.csv").write_bytes(
        "t,T/°C\n0,21\n".encode("latin-1"))
    (directory / "latin1.csv.meta.yaml").write_text("user: Max Doe\n",
                                                    encoding="utf-8")
    (directory / "doc.yaml").write_text("user: Max Doe\n", encoding="utf-8")
    (directory / "bad.yaml").write_text("user: 3\nextra: x\n",
                                        encoding="utf-8")
    (directory / "schema.json").write_text(SCHEMA, encoding="utf-8")
    (directory / "ref.json").write_text('{"$ref": "#/x"}', encoding="utf-8")
    (directory / "profile.yaml").write_text("describe: [broken\n",
                                            encoding="utf-8")
    # A package whose resource path points outside its directory.
    (directory / "escaping").mkdir()
    (directory / "escaping" / "esc.json").write_text(json.dumps(
        {"resources": [{"name": "esc", "path": "../data.csv",
                        "schema": {"fields": [{"name": "t"}, {"name": "U"},
                                              {"name": "T"}]},
                        "metadata": {}}]}), encoding="utf-8")


def run_case(argv: list[str], capsys) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return (f"exit {code}\n--- stdout\n{captured.out}"
            f"--- stderr\n{captured.err}")


def files_under(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, monkeypatch, capsys, case):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UNITPACK_NO_COLOR", raising=False)
    got = run_case(CASES[case], capsys)
    assert got.encode("utf-8") == (GOLDEN / f"{case}.txt").read_bytes()
    written = files_under(tmp_path / "out")
    assert written == files_under(GOLDEN / case)
    for name, data in written.items():
        if name.endswith(".json"):
            strict_json(data.decode("utf-8"))
