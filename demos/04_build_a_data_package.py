"""
Building a data package
=======================

Bundle a CSV and its sidecar metadata into a single-resource package:
a JSON descriptor carrying the unit-aware field schema plus the full
metadata, next to the CSV itself. Then rescale a column and compute a
derived quantity (the resistance of the measured resistor).
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from unitpack import build_entry, load_document, load_entry, parse_quantity, \
    rescale, save_entry
from unitpack.datapackage import field_quantity
from unitpack.metadata import get_path

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)

(workdir / "data.csv").write_text("""\
t,U,T
0,1.01,275
1,1.02,275
2,1.05,275
""", encoding="utf-8")

(workdir / "data.csv.meta.yaml").write_text("""\
user: Max Doe
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
""", encoding="utf-8")

metadata = load_document(workdir / "data.csv.meta.yaml")
entry = build_entry(workdir / "data.csv", metadata)
print("entry:", entry)
print("fields:", [(f.name, f.unit) for f in entry.fields])

outdir = workdir / "generated"
json_path, csv_path = save_entry(entry, outdir)
print("wrote:", json_path.name, "and", csv_path.name)
print("round-trips:", load_entry(json_path) == entry)

# Rescaling converts cells with an exact rational factor and swaps the
# field unit; everything else is untouched.
in_volts = rescale(entry, {"U": "V"})
print("U in volts:", in_volts.table.column_values("U"))

# Metadata and data combine into derived quantities: R = U / I.
mean_u = field_quantity(entry, "U", "mean")
current = parse_quantity(get_path(entry.metadata, "current"))
print("mean U:", mean_u)
print("R = U/I =", (mean_u / current).to("Ohm"))
