"""Record reference output digests for workload variants that have none.

Run from the root of a checkout::

    python3 perfbench/record_digests.py sensor route denoise

For every variant of the named workloads that ``digests.json`` does not yet
hold, this generates the inputs, runs the CLI once and stores the sha256 of
each output file.  It never replaces a recorded entry: the entries are the
reference every benchmark run is checked against.  Only after an intended
change of the program's outputs, delete the affected entries by hand and
record them again.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in workloads.WORKLOADS or n == "bench"]
    if not names or unknown:
        print("usage: record_digests.py WORKLOAD...  (not bench: it is checked against "
              f"{workloads.GOLDEN_DIR})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    scratch = run.ROOT / ".perfbench" / "record"
    for name in names:
        for variant in range(workloads.VARIANTS):
            recorded = json.loads(workloads.DIGESTS.read_text())
            if str(variant) in recorded.get(name, {}):
                continue
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            try:
                runner = run.Runner(workloads.WORKLOADS[name], variant, scratch)
                res = runner.launch(traced=False)
                if res["code"] != 0 or res["timed_out"]:
                    print(f"{name} variant {variant}: the CLI failed", file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(variant)] = workloads.output_digests(
                    runner.outdir
                )
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            workloads.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"{name} variant {variant}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
