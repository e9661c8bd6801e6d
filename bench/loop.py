"""The timed closed loop, run as a process of its own.

    python3 bench/loop.py JOB.json RESULT.json

One client: each ``driftspace.cli.main`` call starts when the previous one
has returned.  The job lists the commands in order; the loop runs them,
wrapping around the list if it runs out, until ``seconds`` have passed and
every command in ``metrics`` has ``min_samples`` timings.  Running the loop
apart from set-up lets the parent read this process's peak RSS on its own.
Garbage is collected before each command, outside its timing, so that no
command pays for the garbage of the ones before it, as in a fresh CLI
process.
"""

import contextlib
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from driftspace import cli

    counts = dict.fromkeys(job["metrics"], 0)
    ops = job["ops"]
    results = []
    end = time.monotonic() + job["seconds"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        while time.monotonic() < end or min(counts.values()) < job["min_samples"]:
            index = len(results) % len(ops)
            op = ops[index]
            gc.collect()
            start = time.perf_counter()
            code = cli.main(op["argv"])
            seconds = time.perf_counter() - start
            digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                       for p in op["digest"]} if code == 0 else None
            results.append({"index": index, "seconds": seconds, "exit_code": code,
                            "digests": digests})
            if op["metric"] in counts:
                counts[op["metric"]] += 1
    Path(result_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
