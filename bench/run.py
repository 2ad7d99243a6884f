"""Benchmark of swigident: identify, verify and simulate, timed end to end and
traced per module.

    python3 bench/run.py --workload identify-search --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from src/.  The
workloads are in workloads.py and their checks in gate.py; README.md says
what each metric means.

--trace 0 sends the workload's requests as a closed loop with one client,
in whole passes over the request set, for about --seconds, with three timed
set-ups before each pass, and calibration units (calibrate.py) before each
pass's set-ups and before each request.  It reports the end-to-end metrics
of BENCHMARK.json.  Set-up and request times are in reference seconds: each
is scaled by the host speed the calibration measured around it.

--trace 1 runs set-up plus one pass five times: to warm up, then untraced
and with every layer wrapped (spans.py) in turn, twice each.  It reports
the per-layer metrics of the first traced run, the tracing overhead (mean
traced minus mean untraced wall time) and whether the two traced runs
counted exactly the same.

The last line of standard output is the result object (correct, attempted,
failed, metrics).  The line before it is a report with the workload-level
metric names, the environment and the first failures.  Run files go to
.bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS_PER_PASS = 3

# One process, one client, no worker threads: keep BLAS pools at one thread
# unless the caller set them.  Must happen before numpy is imported.
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")


@dataclass
class Tally:
    """What the requests of a run did."""

    latencies: list[float] = field(default_factory=list)
    by_label: dict[str, list[float]] = field(default_factory=dict)
    # End-to-end runs only: seconds per calibration unit, in the order
    # measured, and for each request the index of the one just before it.
    unit_s: list[float] = field(default_factory=list)
    unit_before: list[int] = field(default_factory=list)
    passes: int = 0
    work: float = 0.0  # in the workload's unit, over requests that passed
    attempted: int = 0
    failed: int = 0
    solvable: int = 0
    solved: int = 0
    failures: list[str] = field(default_factory=list)
    counts_repeat: bool = True  # traced runs only


def run_pass(workload, pass_index: int, tally: Tally, tracer=None, calibrated=False) -> float:
    """Send one pass of requests, each after the previous one completed;
    returns the seconds spent inside requests.  calibrated runs calibration
    units before each request, outside its timed region."""
    import calibrate
    import gate
    import spans

    busy = 0.0
    for n, request in enumerate(workload.requests(pass_index)):
        if calibrated:
            tally.unit_s.append(calibrate.measure(workload.CAL_UNITS))
            tally.unit_before.append(len(tally.unit_s) - 1)
        if tracer is not None:
            tracer.request = f"pass{pass_index}.{n}"
        error = None
        t0 = time.perf_counter()
        try:
            raw = request.run()
        except (Exception, SystemExit) as exc:  # a request that raises is a failed request
            raw, error = None, exc
        elapsed = time.perf_counter() - t0
        with spans.paused(tracer):
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                outcome = gate.failed(f"raised {error!r}")
            else:
                try:
                    outcome = request.check(raw)
                except Exception as exc:
                    traceback.print_exception(exc, file=sys.stderr)
                    outcome = gate.failed(f"check raised {exc!r}")
        busy += elapsed
        tally.latencies.append(elapsed)
        tally.by_label.setdefault(request.label, []).append(elapsed)
        tally.attempted += 1
        if outcome.ok:
            tally.work += outcome.work
            tally.solvable += outcome.solvable
            tally.solved += outcome.solved
        else:
            tally.failed += 1
            if len(tally.failures) < 5:
                tally.failures.append(f"{request.label}: {outcome.reason}")
    tally.passes += 1
    return busy


def with_units(values: dict, section: list) -> dict:
    """The metrics of a BENCHMARK.json section (end_to_end or per_layer),
    with the units it gives them; values must hold exactly those names."""
    names = {m["name"] for m in section}
    if set(values) != names:
        raise KeyError(f"computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}


def workload_metrics(workload_cls, metrics: dict) -> dict:
    """End-to-end metrics under workload-level names: for identify-search
    identify.queries_per_ref_s and identify.solved_share, and likewise with
    the prefixes verify (model_steps) and estimate (rows)."""
    prefix, unit = workload_cls.prefix, workload_cls.unit
    out = {}
    for name, metric in metrics.items():
        if name == "throughput_per_ref_s":
            out[f"{prefix}.{unit}_per_ref_s"] = {"value": metric["value"], "unit": f"{unit}/ref_s"}
        elif name == "solved_share":
            out[f"{prefix}.{name}"] = metric
        else:
            out[name] = metric
    return out


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def measure(workload_cls, workdir: Path, seed: int, seconds: float, section: list):
    """End-to-end run with tracing off.

    Each pass is preceded by SETUPS_PER_PASS timed set-ups, so that the
    set-up samples span the run like the requests do.  Passes continue
    while the run is nearer its start than --seconds, counting whole passes
    (the run stops at the pass boundary closest to --seconds).

    Calibration units are timed before the set-ups of each pass, before
    each request and once at the end.  A set-up or request time in reference
    seconds is its wall time divided by the mean unit time of the
    calibrations just before and just after it, times calibrate.UNIT_REF_S.
    """
    import calibrate

    workload = workload_cls(workdir, seed)
    setups: list[tuple[float, int]] = []  # (seconds, index of the unit before)
    tally = Tally()
    start = time.perf_counter()
    last = 0.0
    while tally.passes == 0 or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        tally.unit_s.append(calibrate.measure(workload.CAL_UNITS))
        setups += [(timed_setup(workload), len(tally.unit_s) - 1) for _ in range(SETUPS_PER_PASS)]
        if tally.passes == 0:
            workload.prepare()
        run_pass(workload, tally.passes, tally, calibrated=True)
        last = time.perf_counter() - t0
    tally.unit_s.append(calibrate.measure(workload.CAL_UNITS))

    def ref_s(seconds: float, before: int) -> float:
        unit_s = (tally.unit_s[before] + tally.unit_s[before + 1]) / 2
        return seconds * calibrate.UNIT_REF_S / unit_s

    busy_ref_s = sum(map(ref_s, tally.latencies, tally.unit_before))
    values = {
        "setup_s": statistics.median(ref_s(*setup) for setup in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_ref_s": tally.work / busy_ref_s,
        "solved_share": tally.solved / tally.solvable if tally.solvable else 0.0,
    }
    metrics = with_units(values, section)
    prefix = workload_cls.prefix
    report = {
        "metrics": {
            **workload_metrics(workload_cls, metrics),
            f"{prefix}.{workload_cls.unit}_per_s": {
                "value": tally.work / sum(tally.latencies), "unit": f"{workload_cls.unit}/s"
            },
            "setup_s.wall": {"value": statistics.median(t for t, _ in setups), "unit": "s"},
            f"{prefix}.latency_s.p50": {"value": statistics.median(tally.latencies), "unit": "s"},
            f"{prefix}.latency_s.p75": {"value": upper_quartile(tally.latencies), "unit": "s"},
            "failed_share": {"value": tally.failed / tally.attempted, "unit": "share"},
        },
        "samples": {"passes": tally.passes, "requests": tally.attempted, "setups": len(setups)},
        "setup_s_samples": [t for t, _ in setups],
        "latency_s_by_request": tally.by_label,
        "calibration_unit_s": {
            "median": statistics.median(tally.unit_s),
            "reference": calibrate.UNIT_REF_S,
            "samples": tally.unit_s,
        },
    }
    return tally, metrics, report


def traced_once(workload_cls, workdir: Path, seed: int, tally: Tally, tracer=None) -> float:
    """Set-up plus one pass; returns their wall time.  With a tracer, set-up
    and requests are spans (checks and reference values are not)."""
    import spans

    workload = workload_cls(workdir, seed)
    if tracer is not None:
        tracer.request = "setup"
        tracer.active = True
    setup_s = timed_setup(workload)
    with spans.paused(tracer):
        workload.prepare()
    busy = run_pass(workload, 0, tally, tracer)
    if tracer is not None:
        tracer.active = False
    return setup_s + busy


def traced(workload_cls, workdir: Path, seed: int, spans_path: Path, section: list):
    import spans

    tally = Tally()
    # The first run warms the interpreter and file cache; it is not timed.
    traced_once(workload_cls, workdir, seed, tally)
    # Untraced and traced runs alternate, so that a drift of the host's speed
    # weighs on both sides of the overhead alike.
    tracers, untraced, walls = [], [], []
    for _ in range(2):
        untraced.append(traced_once(workload_cls, workdir, seed, tally))
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            walls.append(traced_once(workload_cls, workdir, seed, tally, tracer))
        finally:
            uninstall()
        tracers.append(tracer)
    first, second = (t.count_signature() for t in tracers)
    tally.counts_repeat = first == second
    if not tally.counts_repeat:
        tally.failures.append("counts differ between the two traced runs")
    values = spans.layer_metrics(tracers[0])
    values["trace.untraced_s"] = statistics.mean(untraced)
    values["trace.traced_s"] = statistics.mean(walls)
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    values["trace.spans"] = len(tracers[0].spans)
    values["trace.counts_repeat"] = 1.0 if tally.counts_repeat else 0.0
    metrics = with_units(values, section)
    tracers[0].write_spans(spans_path)
    report = {
        "metrics": metrics,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "count_signature": first,
    }
    return tally, metrics, report


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swigident" / "__init__.py").is_file():
        print(f"error: no swigident sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{stem}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, report = traced(
                workload_cls, workdir, args.seed, OUT / f"{stem}-spans.jsonl", spec["per_layer"]
            )
        else:
            tally, metrics, report = measure(
                workload_cls, workdir, args.seed, args.seconds, spec["end_to_end"]
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment(args)
    report["failures"] = tally.failures
    result = {
        "correct": tally.failed == 0 and tally.counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2), encoding="utf-8"
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
