"""A fixed CPU workload that tracks how fast this machine runs right now.

It imports nothing from unitpack, so no change to the program moves it.
It does what unitpack's hot path does: parse CSV text, type the cells
with a number regex, write them back in shortest round-trip form, and
dump JSON.  On a shared machine its time follows the drift of the
program's own times, while a plain arithmetic loop does not.  Prints the
seconds the timed part took.

    python3 perfbench/reference.py
"""

import csv
import io
import json
import random
import re
import time

ROWS = 20000
ROUNDS = 2
_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?$")


def workload(text: str) -> int:
    written = 0
    for _ in range(ROUNDS):
        rows = [tuple(float(cell) if _NUMBER_RE.match(cell) else cell
                      for cell in row)
                for row in list(csv.reader(io.StringIO(text)))[1:]]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow([repr(cell) for cell in row])
        written += len(out.getvalue())
        written += len(json.dumps([{"t": t, "u": str(u)}
                                   for t, u in rows[:5000]]))
    return written


def main() -> None:
    rng = random.Random(0)
    text = "t,U\n" + "".join(
        f"{round(i * 0.01, 6)!r},{round(rng.uniform(-1e3, 1e3), 3)!r}\n"
        for i in range(ROWS))
    start = time.perf_counter()
    workload(text)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
