"""
Static reports
==============

Turn a collection into a browsable set of pages: a root index, one
overview per group (here: electrode material), one page per entry, and
an SVG thumbnail of each curve. Pure files, no server, byte-identical
across runs.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from unitpack.collection import Collection
from unitpack.datapackage import Entry, FieldSpec
from unitpack.metadata import MetadataDoc
from unitpack.report import ReportConfig, write_report
from unitpack.tabular import Table

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)


def make_entry(identifier, material, rows):
    metadata = MetadataDoc(root={
        "user": "Max Doe",
        "system": {"electrodes": {"working_electrode":
                                  {"material": material}}},
    })
    table = Table(columns=("t", "U"), rows=rows)
    fields = (FieldSpec(name="t", unit="s"), FieldSpec(name="U", unit="mV"))
    return Entry(identifier=identifier, fields=fields, table=table,
                 metadata=metadata)


db = Collection(entries=(
    make_entry("cv-pt-1", "Pt", ((0, 1.0), (1, 2.2), (2, 1.4), (3, 2.9))),
    make_entry("cv-pt-2", "Pt", ((0, 0.5), (1, 1.5), (2, 0.8))),
    make_entry("cv-au-1", "Au", ((0, 2.0), (1, 1.0), (2, 2.5))),
))

cfg = ReportConfig(
    out_dir=workdir / "site",
    plot_x="t", plot_y="U",
    group_by="system.electrodes.working_electrode.material",
    descriptor_columns=(
        ("user", "user"),
        ("material", "system.electrodes.working_electrode.material"),
    ),
    format="markdown",
)

written = write_report(db, cfg)
print(f"wrote {len(written)} files under {cfg.out_dir}:")
for path in written:
    print("  ", path.relative_to(workdir))

index = (cfg.out_dir / "index.md").read_text(encoding="utf-8")
print("\n--- index.md ---")
print(index)
