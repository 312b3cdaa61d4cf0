"""Print a digest of every benchmark output of an rmtlab checkout, or
the lines where the digests of two checkouts differ.

    python3 tools/output_digest.py CHECKOUT
    python3 tools/output_digest.py OLD NEW

Runs each config of `perfbench.workloads.configs(w, s)`, for the three
workloads and s in {1, 2}, through CHECKOUT's
`rmtlab.experiments.run_experiment` in a temporary directory that is then
removed.  Prints one line per output file: `workload seed call file
sha256`, where the hash is `perfbench/outputs.fingerprint`'s (the report
without `wall_clock_s`), taken once the report's `env` record, which names
the host, is dropped.  The configs and the hash come from the perfbench of
this script's own tree, so two checkouts give the same lines exactly when
their outputs are byte-identical.

With two checkouts, each digest runs in its own interpreter, as each
imports its own `rmtlab`; the lines only OLD gives are printed with a
leading `- `, those only NEW gives with `+ `.  The exit status is 1 when
any line differs, 0 when none does and 2 when a digest fails.
"""

from __future__ import annotations

import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2)


def compare(old: str, new: str) -> int:
    digests = []
    for tree in (old, new):
        run = subprocess.run([sys.executable, __file__, tree], text=True,
                             stdout=subprocess.PIPE)
        if run.returncode:  # its traceback went to stderr
            return 2
        digests.append(run.stdout.splitlines())
    differ = [line for line in difflib.ndiff(*digests)
              if line[:2] in ("- ", "+ ")]
    for line in differ:
        print(line)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
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
