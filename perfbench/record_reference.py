"""Record the reference outputs the benchmark checks every pass against.

Run from the repository root:

    python3 perfbench/record_reference.py

It makes each workload's calls once at the default seed and writes their
outputs to perfbench/reference.json. The recorded file belongs to the
benchmark: re-record only when the benchmark's inputs change, never to make
a changed program pass.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

reference = {}
for name in ("quickstart", "stiff", "sweep"):
    for call in workloads.make(name, workloads.DEFAULT_SEED):
        reference[call.key] = workloads.snapshot(call, call.invoke())
        print(call.key, "recorded", flush=True)
workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
