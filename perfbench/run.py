"""strata-lab benchmark: one seeded workload, run as a closed loop in one process.

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  Jobs run back to back on one thread, the next one sent only
when the previous one returns.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it runs the same jobs untraced, then traced, and
reports the per-layer metrics and the tracing overhead.  Every answer is
checked outside the timed region; a wrong answer or an unexpected error makes
the run print "correct": false and exit 1.  The last line of stdout is the
JSON result; a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
MIN_ROUNDS = 3
CAL_EVERY_S = 0.02
SETUP_SLICES = 5

# name, unit
END_TO_END = [
    ("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
    ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"),
]

# name, unit, end-to-end metric it should move, workload it should move it on
PER_LAYER = [
    ("import_s", "s", "setup_s", "all"),
    ("zoo.build_s", "s", "setup_s", "all"),
    ("dsl.parse_s", "s", "job_p50_ms", "rewrite"),
    ("dsl.evaluate_s", "s", "job_p50_ms", "rewrite"),
    ("dsl.evaluate_calls", "count", "job_p50_ms", "rewrite"),
    ("pbw.normal_form_s", "s", "jobs_per_s, job_p90_ms", "rewrite"),
    ("pbw.normal_form_calls", "count", "jobs_per_s, job_p90_ms", "rewrite"),
    ("pbw.normal_form_letters_in", "count", "jobs_per_s, job_p90_ms", "rewrite"),
    ("pbw.normal_form_terms_out", "count", "jobs_per_s, job_p90_ms", "rewrite"),
    ("pbw.fuel_exhausted", "count", "ok_ratio", "rewrite"),
    ("pbw.multiply_s", "s", "jobs_per_s", "laws, rewrite"),
    ("pbw.multiply_calls", "count", "jobs_per_s", "laws, rewrite"),
    ("pbw.multiply_terms_out", "count", "jobs_per_s", "laws, rewrite"),
    ("pbw.diamond_check_s", "s", "job_p50_ms", "laws"),
    ("pbw.diamond_check_triples", "count", "job_p50_ms", "laws"),
    ("pbw.hilbert_count_s", "s", "job_p50_ms", "laws"),
    ("pbw.hilbert_monomials", "count", "job_p50_ms", "laws"),
    ("coeff.arith_s", "s", "job_p50_ms", "laws"),
    ("coeff.arith_calls", "count", "job_p50_ms", "laws"),
    ("grading.normality_s", "s", "job_p50_ms", "laws"),
    ("grading.normality_calls", "count", "job_p50_ms", "laws"),
    ("qdet.verify_s", "s", "jobs_per_s", "laws"),
    ("qdet.identities", "count", "jobs_per_s", "laws"),
    ("qdet.determinant_s", "s", "jobs_per_s", "laws"),
    ("lattice.kernel_s", "s", "job_p50_ms", "strata"),
    ("lattice.kernel_calls", "count", "job_p50_ms", "strata"),
    ("strat.hspec_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.report_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.reports", "count", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.covers_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.axioms_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.box_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.box_points", "count", "jobs_per_s, job_p90_ms", "strata"),
    ("strat.witness_s", "s", "jobs_per_s, job_p90_ms", "strata"),
    ("cli.run_s", "s", "job_p50_ms", "all"),
    ("cli.run_calls", "count", "job_p50_ms", "all"),
    ("cli.output_bytes", "bytes", "job_p50_ms", "all"),
]
PER_LAYER += [(f"{layer}.{what}", unit, "jobs_per_s", "all")
              for layer in spans.LAYERS
              for what, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"),
                                 ("failures", "count"))]
PER_LAYER += [
    ("trace.overhead", "ratio", "-", "all"),
    ("trace.base_s", "s", "-", "all"),
    ("trace.jobs", "count", "-", "all"),
]

# spans whose self time and call count give the `<span>_s` and `<span>_calls` metrics
SPAN_METRICS = (
    "zoo.build", "dsl.parse", "dsl.evaluate", "pbw.normal_form", "pbw.multiply",
    "pbw.diamond_check", "pbw.hilbert_count", "coeff.arith", "grading.normality",
    "qdet.verify", "qdet.determinant", "lattice.kernel", "strat.hspec", "strat.report",
    "strat.covers", "strat.axioms", "strat.box", "strat.witness", "cli.run",
)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_library() -> float:
    """Import every strata_lab module from the checkout's src/; returns seconds."""
    if not (SRC / "strata_lab" / "__init__.py").is_file():
        fail(f"no strata_lab package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in spans.LAYERS:
        importlib.import_module("strata_lab." + name)
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> None:
    """Child-process mode: time import plus workload set-up in a fresh interpreter.

    Prints the raw seconds and the seconds scaled by reference slices taken
    just before and after (calib.py).
    """
    calib.slice_s()
    cal = [calib.slice_s() for _ in range(SETUP_SLICES)]
    start = time.perf_counter()
    import_library()
    import workloads
    workloads.Workload(workload, workloads.make_specs(workload, seed))
    raw = time.perf_counter() - start
    cal += [calib.slice_s() for _ in range(SETUP_SLICES)]
    print(json.dumps({"raw_s": raw, "setup_s": raw * calib.scale(cal)}))


def probe_once(workload: str, seed: int) -> dict:
    """One set-up probe in a fresh interpreter: {"raw_s", "setup_s"}."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--probe-setup",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the closed loop ------------------------------------------------------------------


def settle() -> None:
    """Move the prepared inputs out of the garbage collector's view.

    The job list holds thousands of long-lived objects; left in the tracked
    generations they would make every full collection during the jobs slower
    than it is in a user's process.
    """
    gc.collect()
    gc.freeze()


def run_rounds(rounds, seconds: float, after_round, nrounds: int | None = None, tracer=None):
    """Run whole rounds back to back, wrapping around the list of rounds.

    Without `nrounds` the pass ends with the first round that brings the timed
    total to `seconds`, and runs at least MIN_ROUNDS rounds.  Reference slices
    (calib.py) run at the start of each round and after every CAL_EVERY_S of
    job time.  `after_round` receives the round's outcomes
    [(job, status, result)] once the round is over.  Neither is in the job
    times.  Returns, per round, ([latency_s], [(jobs done, slice_s)]).
    """
    from strata_lab.pbw import FuelExhausted
    per_round = []
    done = 0
    while True:
        lat, outcomes = [], []
        cal = [calib.slice_s()]
        marks = [0]
        since = 0.0
        for job in rounds[len(per_round) % len(rounds)]:
            if tracer is not None:
                tracer.job = done
                span = tracer.begin("job")
            t0 = time.perf_counter()
            try:
                result, status = job.run(), "ok"
            except FuelExhausted:
                result, status = None, "fuel"
            except Exception as exc:  # a job that raises is recorded and the loop goes on
                result, status = exc, "error"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(span, status != "ok")
            done += 1
            lat.append(t1 - t0)
            outcomes.append((job, status, result))
            since += t1 - t0
            if since >= CAL_EVERY_S:
                cal.append(calib.slice_s())
                marks.append(len(lat))
                since = 0.0
        cal.append(calib.slice_s())
        marks.append(len(lat))
        per_round.append((lat, list(zip(marks, cal))))
        after_round(outcomes)
        n = len(per_round)
        if n >= nrounds if nrounds is not None else (
                n >= MIN_ROUNDS and sum(sum(lats) for lats, _ in per_round) >= seconds):
            return per_round


class Tally:
    """Outcome counts of a pass.  Answers are checked after each round, then dropped,
    so memory does not grow with the number of rounds a run gets through."""

    def __init__(self, workload):
        self.workload = workload
        self.counts = {"attempted": 0, "ok": 0, "fuel": 0, "error": 0, "wrong": 0}
        self.problems = []

    def __call__(self, outcomes) -> None:
        for job, status, result in outcomes:
            if status == "ok":
                try:
                    good = job.check(result)
                except Exception as exc:  # a checker crash on this answer counts it wrong
                    good = False
                    result = exc
                status = "ok" if good else "wrong"
            self.counts["attempted"] += 1
            self.counts[status] += 1
            if status in ("error", "wrong") and len(self.problems) < 20:
                self.problems.append({"job": job.spec, "status": status,
                                      "detail": repr(result)[:300]})
        self.workload.forget_answers()

    @property
    def failed(self) -> int:
        return self.counts["error"] + self.counts["wrong"]


def job_scales(lats, marks) -> list[float]:
    """Per job, the reference factor of the two slices taken just before and after it."""
    out = []
    m = 0
    for j in range(len(lats)):
        while marks[m + 1][0] <= j:
            m += 1
        out.append(calib.CAL_REF_S * 2 / (marks[m][1] + marks[m + 1][1]))
    return out


def scaled_latencies(per_round, scaled: bool = True) -> list[float]:
    """Every job's time, scaled by the reference slices on either side of it (calib.py)."""
    lat = []
    for lats, marks in per_round:
        ks = job_scales(lats, marks) if scaled else [1.0] * len(lats)
        lat.extend(x * k for x, k in zip(lats, ks))
    return lat


def latency_metrics(per_round, scaled: bool = True) -> dict:
    """Jobs per second of job time, and latency percentiles over every job of the run."""
    lat = scaled_latencies(per_round, scaled)
    busy = sum(lat)
    lat.sort()
    # nearest-rank 90th percentile; MIN_ROUNDS rounds of 100 or more jobs leave
    # ten or more samples above it
    return {"jobs_per_s": len(lat) / busy,
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": lat[-(-9 * len(lat) // 10) - 1] * 1e3}


# -- provenance -----------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, specs) -> dict:
    import workloads
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fuel": workloads.REWRITE_FUEL,
        "seed": seed,
        "workload": workload,
        "job_list_sha256": workloads.specs_digest(specs),
        "jobs_per_workload": {w: len(workloads.make_specs(w, seed)) for w in workloads.WORKLOADS},
        "src_lines": src_lines,
    }


def write_record(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def emit(counts: dict, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": counts["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def summary_line(counts) -> str:
    return (f"jobs {counts['attempted']}: ok {counts['ok']}, budget exhausted "
            f"{counts['fuel']}, error {counts['error']}, wrong {counts['wrong']}")


# -- the two modes ------------------------------------------------------------------------


def untraced(workload: str, seed: int, seconds: float) -> int:
    import_library()
    import workloads
    specs = workloads.make_specs(workload, seed)
    prov = provenance(workload, seed, specs)
    print("provenance " + json.dumps(prov, sort_keys=True))
    wl = workloads.Workload(workload, specs)
    settle()
    tally = Tally(wl)

    # Set-up probes run between rounds, so their median spans the run's
    # changes in machine speed rather than one moment of it.
    setup_samples = []

    def after_round(outcomes):
        tally(outcomes)
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(probe_once(workload, seed))

    per_round = run_rounds(wl.rounds, seconds, after_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_once(workload, seed))
    counts = tally.counts
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setup_samples),
               **latency_metrics(per_round),
               "ok_ratio": counts["ok"] / counts["attempted"], "peak_rss_mb": peak_rss_mb}
    raw = {"setup_s": statistics.median(s["raw_s"] for s in setup_samples),
           **latency_metrics(per_round, scaled=False)}
    busy = sum(sum(lats) for lats, _ in per_round)
    print(f"{workload} seed {seed}: {summary_line(counts)}; {len(per_round)} rounds, "
          f"{busy:.3f} s of jobs; {SETUP_PROBES} set-up probes")
    print(f"  {'metric':12s} {'value':>12s} {'unit':6s} {'unscaled':>12s}")
    for name, unit in END_TO_END:
        print(f"  {name:12s} {metrics[name]:12.4f} {unit:6s} {raw.get(name, metrics[name]):12.4f}")
    print_problems(tally.problems)
    write_record(f"{workload}-seed{seed}-trace0", {
        "provenance": prov, "metrics": metrics, "unscaled": raw, "counts": counts,
        "problems": tally.problems, "setup_samples": setup_samples,
        "rounds": [{"latencies_s": lats, "slices": marks} for lats, marks in per_round]})
    emit(counts, tally.failed, metrics, dict(END_TO_END))
    return 0 if tally.failed == 0 else 1


def traced(workload: str, seed: int, seconds: float) -> int:
    import_s = import_library()
    import workloads
    specs = workloads.make_specs(workload, seed)
    prov = provenance(workload, seed, specs)
    print("provenance " + json.dumps(prov, sort_keys=True))

    base = workloads.Workload(workload, specs)
    settle()
    base_tally = Tally(base)
    base_rounds = run_rounds(base.rounds, seconds, base_tally)
    base_wall = sum(scaled_latencies(base_rounds))

    # Fresh presentations for the traced pass, so it starts as cold as the
    # untraced one.  Its answers are checked after tracing stops, so that no
    # checking code lands in the spans.
    tracer = spans.Tracer()
    outcomes = []
    tracer.install()
    try:
        with tracer.span("setup"):
            wl = workloads.Workload(workload, specs, hooks=tracer)
        settle()
        rounds = run_rounds(wl.rounds, seconds, outcomes.extend, nrounds=len(base_rounds),
                            tracer=tracer)
    finally:
        tracer.uninstall()
    tally = Tally(wl)
    tally(outcomes)

    wall = sum(scaled_latencies(rounds))
    summ = tracer.summary()
    metrics = layer_metrics(summ, tracer.counts, import_s)
    metrics.update({"trace.overhead": wall / base_wall, "trace.base_s": base_wall,
                    "trace.jobs": len(outcomes)})
    units = {name: unit for name, unit, _, _ in PER_LAYER}

    print(f"{workload} seed {seed}, untraced: {summary_line(base_tally.counts)}")
    e2e = {**latency_metrics(base_rounds),
           "ok_ratio": base_tally.counts["ok"] / base_tally.counts["attempted"]}
    for name, value in e2e.items():
        print(f"  {name:12s} {value:12.4f}")
    print(f"traced: {summary_line(tally.counts)}; tracing overhead {wall / base_wall:.3f}x, "
          f"traced {wall:.3f} s over untraced {base_wall:.3f} s of the same {len(outcomes)} jobs "
          "(reference seconds)")
    print(f"  {'layer':8s} {'busy_s':>10s} {'self_s':>10s} {'calls':>9s} {'failures':>8s}")
    for layer in spans.LAYERS:
        agg = summ["by_layer"][layer]
        print(f"  {layer:8s} {agg['busy_ns'] / 1e9:10.4f} {agg['self_ns'] / 1e9:10.4f} "
              f"{agg['calls']:9d} {agg['failures']:8d}")
    engine_calls = metrics["pbw.normal_form_calls"] + metrics["pbw.multiply_calls"]
    print(f"  pbw.fuel_exhausted {metrics['pbw.fuel_exhausted']} of {engine_calls} "
          "normal_form and multiply calls")
    for name, unit, moves, on in PER_LAYER:
        print(f"  {name:28s} {metrics[name]:14.6g} {unit:6s} should move {moves} on {on}")
    print_problems(base_tally.problems + tally.problems)

    tag = f"{workload}-seed{seed}-trace1"
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{tag}-spans.jsonl")
    write_record(tag, {"provenance": prov, "metrics": metrics, "untraced": e2e,
                       "counts": tally.counts, "untraced_counts": base_tally.counts,
                       "problems": base_tally.problems + tally.problems})
    merged = {k: tally.counts[k] + base_tally.counts[k] for k in tally.counts}
    failed = tally.failed + base_tally.failed
    emit(merged, failed, metrics, units)
    return 0 if failed == 0 else 1


def print_problems(problems) -> None:
    for p in problems:
        print(f"  {p['status']}: {json.dumps(p['job'])[:200]} -> {p['detail'][:200]}")


def layer_metrics(summ: dict, counts: dict, import_s: float) -> dict:
    by_name = summ["by_name"]
    empty = {"self_ns": 0, "calls": 0}
    out = {"import_s": import_s}
    for span in SPAN_METRICS:
        entry = by_name.get(span, empty)
        out[f"{span}_s"] = entry["self_ns"] / 1e9
        out[f"{span}_calls"] = entry["calls"]
    for layer, agg in summ["by_layer"].items():
        out[f"{layer}.busy_s"] = agg["busy_ns"] / 1e9
        out[f"{layer}.self_s"] = agg["self_ns"] / 1e9
        out[f"{layer}.calls"] = agg["calls"]
        out[f"{layer}.failures"] = agg["failures"]
    out["strat.reports"] = by_name.get("strat.report", empty)["calls"]
    for name in ("pbw.normal_form_letters_in", "pbw.normal_form_terms_out", "pbw.fuel_exhausted",
                 "pbw.multiply_terms_out", "pbw.diamond_check_triples", "pbw.hilbert_monomials",
                 "qdet.identities", "strat.box_points", "cli.output_bytes"):
        out[name] = counts.get(name, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("rewrite", "laws", "strata"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
