"""Record the pinned outputs of every pooled benchmark operation.

    python3 perfbench/pin.py

Runs each operation of every workload's pool as its own ``superband``
process and writes exit code, SHA-256 and size of its stdout to
``pins.json`` from scratch, keyed by a digest of its arguments and input
files.  An operation whose report is not an all-pass verdict is not pinned;
the script lists it and exits 1.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import mix
import run


def main():
    sys.path.insert(0, str(run.SRC))
    workdir = run.BUILD / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = run.child_env()
    pins = {}
    bad = 0
    for workload in mix.WORKLOADS:
        for op in mix.pool(workload):
            op.write_inputs(workdir)
            code, out, stderr, wall, *_ = run.run_child([run.ENTRY, *op.argv], workdir, env)
            entry = {"label": op.label, "exit": code,
                     "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
            why = mix.check(op, {op.key: entry}, code, out)
            print(f"{op.label}: exit {code}, {len(out)} bytes, {wall:.2f} s"
                  + (f"  NOT PINNED: {why} {stderr.decode()[-300:]}" if why else ""),
                  flush=True)
            if why:
                bad += 1
            else:
                pins[op.key] = entry
    run.PINS.write_text(json.dumps({"ops": dict(sorted(pins.items()))}, indent=1) + "\n",
                        encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
