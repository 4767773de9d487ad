"""Gate one perfbench run and record its verdict beside the environment it ran in.

    python3 .github/bench_verdict.py OUTPUT LABEL

OUTPUT holds what perfbench/run.py printed. The run passes when its last
line, a JSON object, reads correct true and failed 0; the exit code is 0
then and 1 otherwise. One line goes to standard output and, when
GITHUB_STEP_SUMMARY is set, to that file: LABEL, the verdict, and the
Python, numpy and scipy versions of the run's ``# env`` line. The digests
were pinned under one numpy build, so a digest verdict is read next to
the wheels that produced it.
"""

import json
import os
import sys

path, label = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    lines = fh.read().splitlines()
env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
try:
    result = json.loads(lines[-1])
    passed = result["correct"] is True and result["failed"] == 0
    verdict = f"correct: {result['correct']}, failed: {result['failed']}"
except (IndexError, KeyError, TypeError, ValueError):
    passed, verdict = False, "no result line"
versions = ", ".join(f"{name} {env.get(name, '?')}" for name in ("python", "numpy", "scipy"))
line = f"{label}: {verdict} ({versions})"
print(line)
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a", encoding="utf-8") as fh:
        fh.write(f"- {line}\n")
sys.exit(0 if passed else 1)
