"""envlld benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload decide_mix --seed 1 --seconds 27 --trace 0

Runs from the root of a checkout and imports envlld from its src/ directory.
The run starts in this fresh interpreter, so every memo cache starts empty.
It measures set-up (import envlld, build both algebras, verify the Casimir
elements, build the sl3 rewrite rules) here and in a few more fresh
interpreters, then serves seeded requests one after another until the time
spent serving reaches --seconds.  Each answer is checked outside its timed
span by code that shares nothing with envlld but the nf print/parse round
trip.

Every time is reported in seconds of a nominal host: each timed interval is
bracketed by a fixed reference computation and scaled by how long it took
(see reference.py), because the shared host's speed swings by up to a factor
of two within seconds.  The wall-clock figures are printed above the result.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a traced run,
plus the tracing overhead against an untraced run of the same seed made in
a child interpreter.  Spans of the traced run are written to
.bench_out/spans-<workload>-<seed>.tsv.

Workloads (see BENCHMARK.json for why each was chosen): decide_mix,
evidence_sweep, expand_text.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import nominal, reference_s

WORKLOADS = ("decide_mix", "evidence_sweep", "expand_text")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3           # fresh interpreters timed for setup_s before the
                           # serving loop, and as many again after it
CHILD_TIMEOUT_S = 170
# peak_rss_mb is read after this many requests (whole rounds of each
# workload's slot list, some 15 to 20 nominal seconds of serving at the
# commit that added the benchmark), so memory is compared at equal work: the
# memo caches grow with every request served, and a faster build would
# otherwise look hungrier
RSS_AFTER = {"decide_mix": 24 * 8, "evidence_sweep": 16 * 20,
             "expand_text": 13 * 16}


def bootstrap():
    """Put the checkout's sources first on the path; refuse to run without
    them rather than measure some other copy of envlld."""
    if not (SRC / "envlld").is_dir():
        sys.exit(f"error: {SRC / 'envlld'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def timed_setup():
    """Seconds from `import envlld` until the first request can be served."""
    t0 = time.perf_counter()
    import envlld.dependence  # noqa: F401
    import envlld.parser  # noqa: F401
    from envlld import algebra
    from envlld.algebra import sl2, sl3
    from envlld.center import casimir_elements, decompose

    sl2()
    sl3()
    casimir_elements("sl2")
    casimir_elements("sl3")
    decompose(sl3().pbw_gen("H2", 3))      # builds the sl3 rewrite rules
    elapsed = time.perf_counter() - t0
    if not Path(algebra.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported envlld from {algebra.__file__}, not {SRC}")
    return elapsed


def nominal_setup():
    """timed_setup() in nominal seconds, with the reference taken as the
    median of three timings just before and three just after it."""
    before = statistics.median(reference_s() for _ in range(3))
    wall = timed_setup()
    after = statistics.median(reference_s() for _ in range(3))
    return nominal(wall, before, after)


def _probe_setup():
    res = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def _percentile(sorted_vals, q):
    # nearest rank; a failed request is +inf, so it misses every limit
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def serve_loop(workload, seed, seconds, tracer=None):
    """Closed loop: the next request is sent when the previous one is done.

    Serves until the wall-clock serving time reaches `seconds` and at least
    RSS_AFTER[workload] requests are done.  The reference is timed just
    before and just after each request.  Returns nominal latencies in
    seconds (inf for a failed request), wall latencies, the number of failed
    requests, the nominal serving time, the peak RSS in MB after RSS_AFTER
    requests, and the first few failure messages.
    """
    from check import Checker, CheckFailed
    from serve import serve
    from workloads import request_stream

    stream = request_stream(workload, seed)
    checker = Checker()
    latencies, walls, errors = [], [], []
    busy = busy_nominal = 0.0
    rid = 0
    rss_mb = None
    while busy < seconds or rss_mb is None:
        req = next(stream)
        before = reference_s()
        t0 = time.perf_counter()
        try:
            out = tracer.request(rid, serve, req) if tracer else serve(req)
            problem = None
        except Exception as ex:  # a failed request is counted, not fatal
            out, problem = None, f"{type(ex).__name__}: {ex}"
        wall = time.perf_counter() - t0
        dt = nominal(wall, before, reference_s())
        busy += wall
        busy_nominal += dt
        walls.append(wall)
        rid += 1
        if out is not None:
            try:
                checker.check(req, out)
            except CheckFailed as ex:
                problem = f"wrong answer: {ex}"
        if rid == RSS_AFTER[workload]:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if problem is None:
            latencies.append(dt)
        else:
            latencies.append(math.inf)
            if len(errors) < 5:
                errors.append(f"{req.kind} {req.algebra} {req.exprs} q={req.q}: "
                              f"{problem}")
    failed = sum(1 for x in latencies if x == math.inf)
    return latencies, walls, failed, busy_nominal, rss_mb, errors


def end_to_end(workload, seed, seconds):
    probes = [_probe_setup() for _ in range(SETUP_PROBES)]
    setup = nominal_setup()
    lat, walls, failed, busy, peak_rss_mb, errors = serve_loop(workload, seed,
                                                              seconds)
    probes += [_probe_setup() for _ in range(SETUP_PROBES)]
    done = sorted(lat)
    walls.sort()
    metrics = {
        "setup_s": (statistics.median(probes + [setup]), "s"),
        "req_per_s": ((len(lat) - failed) / busy, "1/s"),
        "req_p50_ms": (_percentile(done, 0.5) * 1e3, "ms"),
        "req_p90_ms": (_percentile(done, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"wall clock: req_per_s {len(lat) / sum(walls):.4g} 1/s, req_p50_ms "
             f"{_percentile(walls, 0.5) * 1e3:.4g} ms, req_p90_ms "
             f"{_percentile(walls, 0.9) * 1e3:.4g} ms (failed requests included)",
             f"requests {len(lat)}, serving {busy:.2f} nominal s; p50 and p90 over "
             f"{len(lat)} samples, {len(lat) - math.ceil(0.9 * len(lat))} above p90",
             f"failed_frac {failed / len(lat):.4f} ratio ({failed} failed)",
             "setup samples s: " + " ".join(f"{x:.4f}" for x in probes + [setup]),
             f"peak RSS read after request {RSS_AFTER[workload]}"]
    return metrics, len(lat), failed, errors, notes


def traced(workload, seed, seconds):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    base = json.loads(child.stdout.strip().splitlines()[-1])
    timed_setup()
    from spans import LAYERS, Tracer, layer_metrics

    tracer = Tracer().install()
    lat, _, failed, busy, _, errors = serve_loop(workload, seed, seconds, tracer)
    metrics = layer_metrics(tracer)
    untraced = base["metrics"]["req_per_s"]["value"]
    rate = (len(lat) - failed) / busy
    metrics["trace.req_per_s"] = (rate, "1/s")
    metrics["trace.untraced_req_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_frac"] = (1 - rate / untraced, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.tsv"
    tracer.write(path)
    shares = {layer: metrics[f"{layer}.self_s"][0] for layer in (*LAYERS, "request")}
    total_self = sum(shares.values())
    notes = [f"spans written to {path.relative_to(ROOT)}",
             "self time by layer: " + ", ".join(
                 f"{layer} {100 * v / total_self:.1f}%"
                 for layer, v in sorted(shares.items(), key=lambda kv: -kv[1]))]
    if not base["correct"]:
        errors.append("the untraced child run failed its checks")
    return metrics, len(lat), failed, errors, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bootstrap()
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, errors, notes = run(args.workload, args.seed,
                                                    args.seconds)
    for line in notes + errors:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = failed == 0 and not errors
    # a percentile that lands on a failed request is infinite; JSON has no
    # infinity, so it is written as 1e12
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": min(value, 1e12), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
