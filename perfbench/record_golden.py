"""Record golden outputs for every corpus instance of the named workloads.

    python3 perfbench/record_golden.py emulate-n12 bench-sweep solve-n8 f64-large

Run from the repository root on the commit whose outputs are the reference;
the entries are merged into perfbench/golden.json.  CLI requests store the
sha256 of their seeded stdout, f64-large stores f_p and the state norm.
Each output must also pass the oracle and invariant checks of work.py, or
nothing is written.  The largest oracle gap per workload is printed, which
is what the fixed-point tolerances in work.py were set from.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import qmaxemu  # noqa: E402
import work  # noqa: E402

GOLDEN = HERE / "golden.json"


def source_digest() -> str:
    """sha256 over the package sources, naming the code the goldens came from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmaxemu").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(workload: str) -> dict:
    _, corpus = gen.WORKLOADS[workload]
    entries, worst = {}, 0.0
    for instance in range(corpus):
        req = gen.make_request(workload, instance, ROOT / ".perfbench_out" / "inputs")
        graph = None
        if req.kind == "lib":
            with open(req.graph_path, encoding="utf-8") as fh:
                graph = qmaxemu.graph.parse_graph(fh)
        resp = work.execute(req, graph)
        if resp.error is not None or resp.rc != 0:
            raise SystemExit(f"{workload}:{instance} failed: {resp.error or resp.rc}")
        if req.kind == "cli":
            entry = work.digest(resp.output)
        else:
            entry = {"f_p": resp.output[0], "norm": resp.output[1]}
        verdict = work.check(resp, {str(instance): entry}, {})
        if verdict.failures:
            raise SystemExit(f"{workload}:{instance}: {verdict.failures}")
        worst = max(worst, verdict.f_p_err or 0.0)
        entries[str(instance)] = entry
        print(f"{workload}:{instance} {resp.seconds:.3f}s gap={verdict.f_p_err}", flush=True)
    print(f"{workload}: largest oracle gap {worst:.3g}", flush=True)
    return entries


def main(names) -> int:
    recorded = {name: record(name) for name in names}
    data = {"source_sha256": source_digest(), "workloads": {}}
    if GOLDEN.exists():
        data = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if data["source_sha256"] != source_digest():
            raise SystemExit("golden.json was recorded from other sources; refusing to mix")
    data["workloads"].update(recorded)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(gen.WORKLOADS)))
