"""Shared fixtures: the worked CSV/YAML example (a timeseries of voltage
across a resistor at constant temperature) and a small 3-entry
collection for filter/describe/report tests."""

import json
from pathlib import Path

import pytest

from unitpack import (build_entry, datapackage, load_document, save_entry,
                      tabular)
from unitpack.collection import Collection
from unitpack.datapackage import Entry, FieldSpec
from unitpack.metadata import MetadataDoc
from unitpack.tabular import Table

DEMO_CSV = """t,U,T
0,1.01,275
1,1.02,275
2,1.05,275
"""

DEMO_META = """user: Max Doe
current: 5 mA
figure description:
  fields:
    - name: t
      unit: s
      description: relative time
    - name: U
      unit: mV
    - name: T
      unit: K
"""


def write_demo_fixture(directory: Path) -> tuple[Path, Path]:
    csv_path = directory / "data.csv"
    meta_path = directory / "data.csv.meta.yaml"
    csv_path.write_text(DEMO_CSV, encoding="utf-8")
    meta_path.write_text(DEMO_META, encoding="utf-8")
    return csv_path, meta_path


@pytest.fixture
def demo_paths(tmp_path):
    return write_demo_fixture(tmp_path)


@pytest.fixture
def demo_entry(demo_paths):
    csv_path, meta_path = demo_paths
    return build_entry(csv_path, load_document(meta_path))


@pytest.fixture
def packed_dir(tmp_path, demo_entry):
    outdir = tmp_path / "generated"
    save_entry(demo_entry, outdir)
    return outdir


def material_entry(identifier: str, material: str, user: str = "Max Doe",
                   rows=((0, 1.0), (1, 2.0), (2, 1.5))) -> Entry:
    metadata = MetadataDoc(root={
        "user": user,
        "system": {"electrodes": {"working_electrode":
                                  {"material": material}}},
        "source": {"citation_key": f"{material.lower()}-2024"},
    })
    table = Table(columns=("t", "U"), rows=tuple(tuple(r) for r in rows))
    fields = (FieldSpec(name="t", type="number", unit="s"),
              FieldSpec(name="U", type="number", unit="mV"))
    return Entry(identifier=identifier, fields=fields, table=table,
                 metadata=metadata)


@pytest.fixture
def material_collection():
    return Collection(entries=(
        material_entry("cv-pt-1", "Pt"),
        material_entry("cv-pt-2", "Pt", user="Ada Lovelace"),
        material_entry("cv-au-1", "Au"),
    ))


def strict_json(text: str):
    """`json.loads` that refuses ``NaN``, ``Infinity`` and ``-Infinity``,
    which Python writes and reads but RFC 8259 JSON does not have."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def forbid_csv_body(monkeypatch):
    """Make every parse of a CSV body fail the test, wherever it comes
    from (``read_table`` is the only body parser)."""
    def forbidden(path):
        raise AssertionError(f"CSV body parsed: {path}")
    monkeypatch.setattr(tabular, "read_table", forbidden)
    monkeypatch.setattr(datapackage, "read_table", forbidden)
