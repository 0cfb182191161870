#!/usr/bin/env python3
"""Record the output digests of the recorded seeds into ``digests.json``.

Run from the repository root when the program's outputs change on purpose::

    python3 perfbench/record_digests.py            # every seed in RECORDED_SEEDS
    python3 perfbench/record_digests.py 0 3        # only these seeds

Every later benchmark run on a recorded seed then requires these digests.
The file is rewritten after each seed, so an interrupted recording keeps
the seeds already done.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

# The default seed, the seeds the baseline was measured on (1-10) and more,
# so that runs on any seed up to 31 are checked against a reference.
RECORDED_SEEDS = range(0, 32)


def main(argv: list[str]) -> None:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    import gate
    import synth

    seeds = [int(arg) for arg in argv] or list(RECORDED_SEEDS)
    recorded = json.loads(gate.DIGESTS_PATH.read_text(encoding="utf-8")) if gate.DIGESTS_PATH.exists() else {}
    for seed in seeds:
        for workload in synth.WORKLOADS:
            work = run.WORK_ROOT / f"record-{workload}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                inputs = synth.synthesise(synth.WORKLOADS[workload], seed, work / "inputs")
                job = dict(inputs, pass_dir=str(work / "pass"), seed=seed, trace=False, seconds=0)
                run.run_child(job)
                found = gate.recorded_view(gate.digests(Path(job["pass_dir"])))
                recorded.setdefault(workload, {})[str(seed)] = found
            finally:
                shutil.rmtree(work, ignore_errors=True)
            gate.DIGESTS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {workload} seed {seed} in {gate.DIGESTS_PATH}", flush=True)
    if run.WORK_ROOT.exists() and not any(run.WORK_ROOT.iterdir()):
        run.WORK_ROOT.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
