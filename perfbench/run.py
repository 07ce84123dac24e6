"""qmaxemu benchmark: one workload, closed loop, one request in flight.

    python3 perfbench/run.py --workload emulate-n12 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's inputs are generated from
--seed, qmaxemu is imported from ./src, and requests run in whole passes
over the workload's fixed request list for about --seconds.  Every output is
checked after the timed region against golden.json and an independent
state-vector oracle.  End-to-end times are scaled to a nominal host speed,
read from the workload's calibration kernel, timed around and during each
request (see hostspeed.py).  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (from a separate, wrapped run) with
--trace 1.  Lines before it start with '#' and describe the host and the
sample counts.  A full report goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
SETUP_KERNELS = 3  # calibration kernel runs on each side of a set-up probe
TAIL_QUANTILE = 0.75

END_TO_END = (
    ("wall_s", "s"), ("req_p50_s", "s"), ("req_tail_s", "s"),
    ("elems_per_s", "1/s"), ("evals_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (plain Python; the emulator is imported later)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, reqs) -> tuple[float, list[float], list[float]]:
    """Median time for a fresh interpreter to import qmaxemu and load the
    inputs, at the nominal host speed (see hostspeed.py).  The workload's
    calibration kernel runs just before and just after each probe.  Returns
    the median and the scaled and raw probe times."""
    import hostspeed
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    cmd += sorted({r.graph_path for r in reqs if r.graph_path})
    shape = hostspeed.KERNELS[workload]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        samples = [hostspeed.kernel(*shape) for _ in range(SETUP_KERNELS)]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, env=os.environ)
        raw.append(float(proc.stdout.split()[-1]) - started)
        samples += [hostspeed.kernel(*shape) for _ in range(SETUP_KERNELS)]
        scaled.append(raw[-1] * hostspeed.scale(samples))
    return statistics.median(scaled), scaled, raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def host_description() -> dict:
    import numpy
    import scipy
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def tail(durations: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_QUANTILE and its 0-based rank.

    Ten samples beyond the tail would need 40 requests per run at the 75th
    percentile; runs hold 1 to about 20, so the rank, and the count above
    it, are printed with the result instead.  A higher percentile would be
    the largest sample in most runs, and so measure a single outlier."""
    ordered = sorted(durations)
    rank = math.ceil(TAIL_QUANTILE * len(ordered)) - 1
    return ordered[rank], rank


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmaxemu" / "__init__.py").is_file():
        print(f"error: no qmaxemu sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in the probes
    reqs = gen.requests(args.workload, args.seed, OUT / "inputs")
    setup = setup_seconds(args.workload, reqs) if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import qmaxemu
    if Path(qmaxemu.__file__).resolve().parent != SRC / "qmaxemu":
        print(f"error: qmaxemu imported from {qmaxemu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import work

    graphs = {}
    for r in reqs:
        if r.kind == "lib":
            with open(r.graph_path, encoding="utf-8") as fh:
                graphs[r.instance] = qmaxemu.graph.parse_graph(fh)
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)["workloads"][args.workload]

    tracer, baseline = None, None
    if args.trace == 0:
        m = work.measure(reqs, graphs, args.seconds, sampler=hostspeed.Sampler(args.workload))
        rss = peak_rss_mb()
    else:
        baseline = work.measure(reqs, graphs, 0.0)  # one untraced pass
        tracer = spans.Tracer()
        tracer.install()
        try:
            m = work.measure(reqs, graphs, args.seconds, tracer)
        finally:
            tracer.remove()

    responses = (baseline.responses if baseline else []) + m.responses
    verdicts = work.judge(responses, golden)
    timed = verdicts[len(responses) - len(m.responses):]
    failed = sum(1 for v in verdicts if v.failures)
    errs = [v.f_p_err for v in verdicts if v.f_p_err is not None]
    raw = [r.seconds for r in m.responses]
    if tracer is None:  # end-to-end times at the nominal host speed
        durations = [r.seconds * hostspeed.scale([r.kernel_s]) for r in m.responses]
    else:
        durations = raw
    per_pass = len(reqs)
    pass_seconds = [sum(durations[i:i + per_pass]) for i in range(0, len(durations), per_pass)]
    busy = sum(durations)
    tail_s, tail_rank = tail(durations)

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(pass_seconds),
            "req_p50_s": statistics.median(durations),
            "req_tail_s": tail_s,
            "elems_per_s": sum(v.elements for v in timed) / busy,
            "evals_per_s": sum(v.evals for v in timed) / busy,
            "setup_s": setup[0],
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    else:
        metrics = spans.layer_metrics(tracer, lambda rid: rid // per_pass)
        metrics["trace.overhead_frac"] = (statistics.median(m.pass_seconds)
                                          / baseline.pass_seconds[0] - 1.0)
        metrics["check.fail_frac"] = work.fail_frac(verdicts)
        metrics["check.f_p_err_max"] = max(errs, default=0.0)
        units = dict(spans.LAYER_METRICS, **{"trace.overhead_frac": "ratio",
                                             "check.fail_frac": "ratio",
                                             "check.f_p_err_max": "cut_weight"})

    host = host_description()
    samples = {"requests": len(durations), "passes": len(m.pass_seconds),
               "tail_rank": tail_rank, "tail_beyond": len(durations) - 1 - tail_rank}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "samples": samples,
        "instances": [r.instance for r in reqs], "metrics": metrics,
        "fail_frac": work.fail_frac(verdicts), "f_p_err_max": max(errs, default=0.0),
        "pass_seconds": pass_seconds, "request_seconds": durations,
        "raw_pass_seconds": m.pass_seconds, "raw_request_seconds": raw,
        "kernel_seconds": [r.kernel_s for r in m.responses],
        "setup_probe_seconds": setup[1] if setup else None,
        "raw_setup_probe_seconds": setup[2] if setup else None,
        "failures": sorted({f for v in verdicts for f in v.failures}),
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    for failure in report["failures"][:10]:
        print(f"check failed: {failure}", file=sys.stderr)

    print("# host " + json.dumps(host))
    print("# samples " + json.dumps(samples))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(responses),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
