"""
Collections
===========

A directory of packages acts as a small file-system database: load it,
select entries by identifier, filter on metadata predicates, and
summarize descriptor statistics through a profile.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from unitpack import Profile, describe, from_directory, save_entry
from unitpack.collection import filter as filter_collection
from unitpack.collection import get, parse_clause
from unitpack.datapackage import Entry, FieldSpec
from unitpack.metadata import MetadataDoc
from unitpack.tabular import Table

workdir = Path(tempfile.mkdtemp(prefix="unitpack-demo-"))
atexit.register(shutil.rmtree, workdir)
outdir = workdir / "db"


def make_entry(identifier, material, user):
    metadata = MetadataDoc(root={
        "user": user,
        "system": {"electrodes": {"working_electrode":
                                  {"material": material}}},
        "source": {"citation_key": f"{material.lower()}-2024"},
    })
    table = Table(columns=("t", "U"),
                  rows=((0, 1.0), (1, 2.0), (2, 1.5)))
    fields = (FieldSpec(name="t", unit="s"), FieldSpec(name="U", unit="mV"))
    return Entry(identifier=identifier, fields=fields, table=table,
                 metadata=metadata)


for entry in (make_entry("cv-pt-1", "Pt", "Max Doe"),
              make_entry("cv-pt-2", "Pt", "Ada Lovelace"),
              make_entry("cv-au-1", "Au", "Max Doe")):
    save_entry(entry, outdir)

db = from_directory(outdir)
print("collection:", db)
print("lookup is case-insensitive:", get(db, "CV-PT-1"))

# Predicates are conjunctions of `path OP value` clauses; entries
# lacking the path simply fail the clause.
mine = filter_collection(db, parse_clause('user == "Max Doe"'))
print("Max Doe's entries:", mine.identifiers)

platinum = filter_collection(db, parse_clause(
    "system.electrodes.working_electrode.material == Pt"))
print("platinum entries:", platinum.identifiers)

# describe() reports the entry count plus distinct values per profile
# path, the file-system equivalent of a database summary view.
print("default profile:", describe(db))

cv_profile = Profile(name="cv", describe_paths=(
    ("materials", "system.electrodes.working_electrode.material"),
    ("users", "user"),
))
print("custom profile:", describe(db, cv_profile))
