"""Seeded inputs for the unitpack benchmark, with the answers a correct
program must give.

Everything the program reads is written here from one seed: the same
seed and sizes give a byte-identical tree.  The expected answers are
computed from the generator's own values, never by calling unitpack.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

MATERIALS = ("Pt", "Au", "GC", "Cu", "Ni")
ELECTROLYTES = ("KOH", "H2SO4", "HClO4", "NaOH")
USERS = ("Max Doe", "Ada Lovelace", "Grace Hopper", "Marie Curie")
CONCENTRATIONS = (0.1, 0.5, 1.0, 2.0)
N_CITATIONS = 40
STEPS = (0.01, 0.02, 0.05)
VARIANTS = 16  # distinct query arguments cycled through per command kind

FIELDS = [
    {"name": "t", "type": "number", "unit": "s",
     "description": "time since start of the scan"},
    {"name": "U", "type": "number", "unit": "mV",
     "description": "potential vs. reference electrode"},
]
PACKED_FIELDS = [{"name": "t", "type": "number", "unit": "s"},
                 {"name": "U", "type": "number", "unit": "mV"}]

MATERIAL_PATH = "system.electrodes.working_electrode.material"
PROFILE_PATHS = (("materials", MATERIAL_PATH),
                 ("electrolytes", "system.electrolyte.name"),
                 ("references", "source.citation_key"))
PROFILE_YAML = "name: bench\ndescribe:\n" + "".join(
    f"  - label: {label}\n    path: {path}\n" for label, path in PROFILE_PATHS)


def csv_text(rng: random.Random, rows: int) -> str:
    """A two-column t,U table whose cells are written in the shortest
    round-trip form, so a faithful reader and writer reproduce it."""
    step = rng.choice(STEPS)
    lines = ["t,U\n"]
    for i in range(rows):
        lines.append(f"{round(i * step, 6)!r},"
                     f"{round(rng.uniform(-1000.0, 1000.0), 3)!r}\n")
    return "".join(lines)


def entry_metadata(rng: random.Random) -> dict:
    return {
        "user": rng.choice(USERS),
        "system": {
            "electrodes": {
                "working_electrode": {
                    "material": rng.choice(MATERIALS),
                    "geometric_area": {
                        "value": round(rng.uniform(0.01, 1.0), 3),
                        "unit": "cm^2"},
                },
                "counter_electrode": {"material": "Pt"},
            },
            "electrolyte": {"name": rng.choice(ELECTROLYTES),
                            "concentration": rng.choice(CONCENTRATIONS),
                            "temperature": 298.15},
        },
        "source": {"citation_key": f"ref-{rng.randrange(N_CITATIONS):02d}",
                   "figure": rng.randrange(1, 9)},
        "figure description": {"fields": FIELDS,
                               "scan_rate": rng.choice((10, 20, 50, 100))},
    }


@dataclass
class Collection:
    """Raw inputs of a CLI workload and the answers to its commands."""

    raw_dir: Path
    profile_path: Path
    ids: list[str]
    metadata: dict[str, dict]
    rows: int
    ls_queries: list[tuple[list[str], str]] = field(default_factory=list)
    show_cases: list[tuple[str, str]] = field(default_factory=list)
    rescale_ids: list[str] = field(default_factory=list)
    describe_stdout: str = ""

    def csv_path(self, identifier: str) -> Path:
        return self.raw_dir / f"{identifier}.csv"

    def meta_path(self, identifier: str) -> Path:
        return self.raw_dir / f"{identifier}.meta.json"

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for identifier in self.ids:
            material = self.metadata[identifier]["system"]["electrodes"][
                "working_electrode"]["material"]
            out.setdefault(material, []).append(identifier)
        return out


def _matches(meta: dict, user: str, threshold: float) -> bool:
    return meta["user"] == user and \
        meta["system"]["electrolyte"]["concentration"] >= threshold


def generate_collection(root: Path, seed: int, entries: int, rows: int
                        ) -> Collection:
    """Write `entries` raw CSV + JSON metadata pairs under root/raw."""
    rng = random.Random(f"collection:{seed}:{entries}:{rows}")
    raw_dir = root / "raw"
    raw_dir.mkdir(parents=True)
    ids = [f"run-{i:05d}" for i in range(entries)]
    coll = Collection(raw_dir=raw_dir, profile_path=root / "profile.yaml",
                      ids=ids, metadata={}, rows=rows)
    for identifier in ids:
        meta = entry_metadata(rng)
        coll.metadata[identifier] = meta
        coll.csv_path(identifier).write_text(csv_text(rng, rows),
                                             encoding="utf-8")
        coll.meta_path(identifier).write_text(
            json.dumps(meta, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8")
    coll.profile_path.write_text(PROFILE_YAML, encoding="utf-8")

    for _ in range(VARIANTS):
        # Filter values come from an existing entry, so no answer is empty.
        anchor = coll.metadata[rng.choice(ids)]
        user = anchor["user"]
        threshold = anchor["system"]["electrolyte"]["concentration"]
        filters = [f"user == '{user}'",
                   f"system.electrolyte.concentration >= {threshold!r}"]
        hits = [i for i in ids if _matches(coll.metadata[i], user, threshold)]
        coll.ls_queries.append((filters, "".join(f"{i}\n" for i in hits)))
        shown = rng.choice(ids)
        coll.show_cases.append(
            (shown, json.dumps(coll.metadata[shown]["user"], indent=2,
                               ensure_ascii=False) + "\n"))
        coll.rescale_ids.append(rng.choice(ids))

    summary: dict = {"number of entries": len(ids)}
    for label, path in PROFILE_PATHS:
        values = set()
        for meta in coll.metadata.values():
            node = meta
            for key in path.split("."):
                node = node[key]
            values.add(node)
        summary[label] = sorted(values)
    coll.describe_stdout = json.dumps(summary, indent=2,
                                      ensure_ascii=False) + "\n"
    return coll


# --- ingest -----------------------------------------------------------------

@dataclass
class WatchTree:
    """A watched tree of raw files, its template, and the files that will
    arrive while the watcher runs."""

    watch_dir: Path
    template_path: Path
    template_text: str
    template_doc: dict
    existing: list[Path]
    arrival_dir: Path
    arrivals: list[tuple[Path, bytes]]
    # Where in its 1/rate slot each arrival is due, in [0, 1): a fixed
    # rate that does not lock onto the watcher's poll period.
    slot_offsets: list[float]

    @property
    def template_hash(self) -> str:
        return hashlib.sha256(self.template_text.encode("utf-8")).hexdigest()


def template_for(rng: random.Random) -> tuple[str, dict]:
    user = rng.choice(USERS)
    material = rng.choice(MATERIALS)
    electrolyte = rng.choice(ELECTROLYTES)
    concentration = rng.choice(CONCENTRATIONS)
    text = (
        "# measurement series template\n"
        f"user: {user}\n"
        "system:\n"
        "  electrodes:\n"
        "    working_electrode:\n"
        f"      material: {material}\n"
        "  electrolyte:\n"
        f"    name: {electrolyte}\n"
        f"    concentration: {concentration!r}\n"
        "figure description:\n"
        "  fields:\n"
        "    - name: t\n"
        "      type: number\n"
        "      unit: s\n"
        "    - name: U\n"
        "      type: number\n"
        "      unit: mV\n"
    )
    doc = {
        "user": user,
        "system": {"electrodes": {"working_electrode": {"material": material}},
                   "electrolyte": {"name": electrolyte,
                                   "concentration": concentration}},
        "figure description": {"fields": PACKED_FIELDS},
    }
    return text, doc


def generate_watch_tree(root: Path, seed: int, subdirs: int, per_dir: int,
                        existing_rows: int, arrivals: int, arrival_rows: int
                        ) -> WatchTree:
    """Write the pre-existing tree; arrival contents are returned, not
    written, because the benchmark writes them on a schedule."""
    rng = random.Random(f"watch:{seed}:{subdirs}:{per_dir}:{arrivals}")
    watch_dir = root / "watch"
    existing = []
    for d in range(subdirs):
        sub = watch_dir / f"series-{d:02d}"
        sub.mkdir(parents=True)
        for i in range(per_dir):
            path = sub / f"scan-{i:03d}.csv"
            path.write_text(csv_text(rng, existing_rows), encoding="utf-8")
            existing.append(path)
    text, doc = template_for(rng)
    template_path = root / "template.yaml"
    template_path.write_text(text, encoding="utf-8")
    arrival_dir = watch_dir / "arrivals"
    planned = [(arrival_dir / f"cell-{k:04d}.csv",
                csv_text(rng, arrival_rows).encode("utf-8"))
               for k in range(arrivals)]
    offsets = [rng.random() for _ in range(arrivals)]
    return WatchTree(watch_dir=watch_dir, template_path=template_path,
                     template_text=text, template_doc=doc, existing=existing,
                     arrival_dir=arrival_dir, arrivals=planned,
                     slot_offsets=offsets)
