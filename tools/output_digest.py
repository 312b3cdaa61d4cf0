"""Print a digest of every benchmark output of an rmtlab checkout.

    python3 tools/output_digest.py CHECKOUT

Runs each config of `perfbench.workloads.configs(w, s)`, for the three
workloads and s in {1, 2}, through CHECKOUT's
`rmtlab.experiments.run_experiment` in a temporary directory that is then
removed.  Prints one line per output file: `workload seed call file
sha256`, where the hash is `perfbench/outputs.fingerprint`'s (the report
without `wall_clock_s`), taken once the report's `env` record, which names
the host, is dropped.  The configs and the hash come from the perfbench of
this script's own tree, so two checkouts give the same lines exactly when
their outputs are byte-identical:

    python3 tools/output_digest.py OLD > old.txt
    python3 tools/output_digest.py NEW > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve() / "src"), str(BENCH)]
    import outputs
    import workloads
    from rmtlab.experiments import run_experiment

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for call, cfg in enumerate(workloads.configs(workload, seed)):
                with tempfile.TemporaryDirectory() as tmp:
                    out = Path(tmp)
                    run_experiment(cfg, out)
                    report = json.loads((out / "report.json").read_text())
                    report.pop("env", None)
                    (out / "report.json").write_text(json.dumps(report))
                    for name, digest in outputs.fingerprint(out).items():
                        print(workload, seed, call, name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
