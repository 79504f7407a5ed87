"""Regenerate expected.json: the stdout digests the check-float workload checks.

    python3 perfbench/make_expected.py

Run it from the root of a checkout, only when the ``check`` output is meant
to change.  ``per_seed`` holds one SHA-256 per (suite, seed) of the corpus;
``any_seed`` holds one per suite of the output with the summary's seed field
blanked, which checks the warm-up requests, whose seeds lie outside the corpus.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import load_program  # noqa: E402
from workloads import CheckFloat  # noqa: E402


def main():
    qg = load_program()
    per_seed, any_seed = {}, {}
    for k in CheckFloat.CORPUS:
        for suite in qg.suites.SUITES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qg.cli.main(["check", "--suite", suite, "--backend", "float", "--seed", str(k)])
            text = buf.getvalue()
            if code != 0:
                sys.exit("error: check --suite %s --seed %d exited %d" % (suite, k, code))
            per_seed["%s:%d" % (suite, k)] = CheckFloat.digest(text)
            blank = CheckFloat.digest(CheckFloat.seedless(text, k))
            if any_seed.setdefault(suite, blank) != blank:
                sys.exit("error: suite %s prints seed-dependent output" % suite)
            print("%s seed %d ok" % (suite, k), file=sys.stderr)
    with open(HERE / "expected.json", "w") as fh:
        json.dump({"check-float": {"per_seed": per_seed, "any_seed": any_seed}}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
