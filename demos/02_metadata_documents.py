"""
Metadata documents
==================

Load YAML metadata, address nodes with dot-paths, validate against a
small JSON-Schema subset, and scan a directory of sidecar files.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from unitpack import load_document, load_schema, scan_metadata_directory, \
    validate
from unitpack.metadata import filter_metadata, get_path

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)

(workdir / "data.csv.meta.yaml").write_text("""\
# instrument export, annotated by hand
user: Max Doe
current: 5 mA
figure description:
  fields:
    - name: t
      unit: s
    - name: U
      unit: mV
""", encoding="utf-8")

(workdir / "other.csv.meta.yaml").write_text("""\
user: Ada Lovelace
current: 2 mA
""", encoding="utf-8")

doc = load_document(workdir / "data.csv.meta.yaml")

# Dot-paths normalize segments (lowercase, spaces -> underscores), so
# `figure_description` reaches the YAML key "figure description".
print("user:", get_path(doc, "user"))
print("first field unit:", get_path(doc, "figure_description.fields.0.unit"))

# A schema rejects documents that drift from the agreed structure.
(workdir / "schema.json").write_text("""\
{
  "type": "object",
  "required": ["user", "current"],
  "properties": {
    "user": {"type": "string"},
    "current": {"type": "string"}
  }
}
""", encoding="utf-8")
schema = load_schema(workdir / "schema.json")
print("violations in data.csv.meta.yaml:", validate(doc, schema))

# Scanning collects every *.meta.yaml below a directory, deterministic
# order, parse failures reported but not fatal.
result = scan_metadata_directory(workdir)
print("scanned:", [p.name for p, _ in result.documents])

matching = filter_metadata(result.documents, "user", "Max Doe")
print("filtered to Max Doe:", [p.name for p, _ in matching])
