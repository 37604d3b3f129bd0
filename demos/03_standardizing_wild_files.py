"""
Standardizing instrument files
==============================

Device software rarely emits a clean single-header CSV. A loader spec
describes the layout once (preamble, footer, renames) so every file
from that device standardizes the same way, without touching values.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from unitpack import apply_loader
from unitpack.tabular import LoaderSpec, load_loader_spec

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)

wild = workdir / "run7.txt"
wild.write_text("""\
Device: Frobulator 3000
Mode: potential sweep
Operator: MD
t,voltage [mV]
0,1.5
1,2.5
2,3.5
END OF RUN
STATUS OK
""", encoding="utf-8")

# The loader spec is plain data, so a lab can version one per device.
spec_file = workdir / "frobulator.loader.yaml"
spec_file.write_text("""\
header_row: 3
skip_footer: 2
rename:
  "voltage [mV]": "U"
""", encoding="utf-8")

spec = load_loader_spec(spec_file)
table = apply_loader(wild, spec)
print("columns:", table.columns)
print("rows:", table.rows)

# Only the structure changed; cell values are identical to the source.
default = LoaderSpec()
print("default spec keeps an ideal CSV as-is:",
      default.header_row == 0 and default.skip_footer == 0)
