"""Benchmark for stabcorrect: three seeded workloads through the public entry
points, end-to-end metrics with tracing off and per-layer metrics with
tracing on.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all [--trace 1]   # every workload
    python3 benchmark/run.py --smoke                      # tiny sizes, all checks
    python3 benchmark/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  See benchmark/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

THREADS = "2"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("selfcorrect-planted", "extract-k", "decompose-tdoped")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 4

E2E_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trial/s",
    "trial_p50_s": "s",
    "peak_rss_mb": "MB",
    "copies_per_trial": "copies",
    "gates_per_trial": "gates",
    "fidelity_mean": "1",
}

# per-layer metrics, per completed trial: span counts, inclusive and self seconds
_CALLS = [
    "kernels.char_expectations", "kernels.xor_convolve", "statevec.sample_weyl_indices",
    "statevec.measure_block", "statevec.apply_circuit", "statevec.lcu_residual",
    "statevec.gowers3_metrics", "pauli.statevector_of", "pauli.stabilizer_inner_product",
    "gf2.rref_basis", "selfcorrect.self_correct", "selfcorrect.collect_small_doubling",
    "selfcorrect.bsg_test", "selfcorrect.find_stabilizer",
]
_SECONDS = _CALLS + [
    "pauli.canonicalize_subgroup", "pauli.synthesize_circuit", "gf2.mub_covering",
    "selfcorrect.pfr_subgroup", "iterate.iterate_robust", "harness.gen_state",
]
_SELF = [
    "selfcorrect.collect_small_doubling", "selfcorrect.bsg_test",
    "selfcorrect.find_stabilizer", "iterate.iterate_robust", "harness.run",
]
FAILURE_CLASSES = ("CollectionEmpty", "PfrSubgroupNotFound", "NoCandidateFound", "SelfCorrectionFailed")
# ledger fields per subroutine; lcu charges controlled-U queries, not copies
LEDGER_ROWS = {
    **{f"ledger.{sub}.copies": (f"{sub}.copies_consumed", "copies/trial") for sub in (
        "bell_difference", "retention", "edge_test", "fidelity_shadows", "measure", "gowers_estimate")},
    "ledger.lcu.queries_conU": ("lcu.queries_conU", "queries/trial"),
}


def per_layer_units() -> dict:
    units = {}
    for name in _CALLS:
        units[f"{name}.calls"] = "1/trial"
    for name in _SECONDS:
        units[f"{name}.s"] = "s/trial"
    for name in _SELF:
        units[f"{name}.self_s"] = "s/trial"
    units.update({
        "kernels.table_bytes": "B/trial",
        "statevec.labels_sampled": "1/trial",
        "statevec.distribution_tables.builds": "1/trial",
        "statevec.table_cache_hit_ratio": "1",
        "statevec.gates_applied": "gates/trial",
        "selfcorrect.collect_yield": "1",
        "selfcorrect.bsg_accept_ratio": "1",
        "iterate.iterations": "1/trial",
    })
    for cls in FAILURE_CLASSES:
        units[f"selfcorrect.failures.{cls}"] = "1/trial"
    for name, (_, unit) in LEDGER_ROWS.items():
        units[name] = unit
    units["traced.trials_per_s"] = "trial/s"
    return units


# ---------------------------------------------------------------------------
# one workload in this process


def _import_program():
    """Make ./src importable; exit without a result when it is missing."""
    if not (SRC / "stabcorrect" / "__init__.py").is_file():
        print(f"error: no stabcorrect package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def _setup(name: str):
    """Import plus first-call lazy set-up; returns (workload, seconds since start)."""
    workloads = _import_program()
    wl = workloads.WORKLOADS[name]
    wl.warm_up()
    return wl, time.perf_counter() - _T0


def _probe_setup(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _over_grid(by_point: dict, key: str, per_point) -> float:
    """``per_point`` of each grid point's values, combined over the grid by
    geometric mean, so every size counts once whatever the mix of trial
    lengths."""
    values = [per_point(p[key]) for p in by_point.values() if p[key]]
    if not values:
        return 0.0
    if min(values) <= 0:
        return _median(values)
    return float(statistics.geometric_mean(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import resource

    from calibrate import Calibrator
    from oracle import CheckFailed
    from tracing import Tracer

    wl, setup_main = _setup(name)
    tracer = Tracer()
    if trace:
        tracer.install()
    durations, raw, fidelities = [], [], []
    # per grid point: calibrated seconds, ledger copies and gates of completed trials
    by_point: dict[str, dict[str, list]] = {}
    # per trial: [label, calibrated seconds, raw seconds, outcome, copies, gates, fidelity]
    log: list[list] = []
    calibrator = Calibrator()
    first_lap = calibrator.last
    breakdown: dict[str, float] = {}
    failures: dict[str, int] = {}
    problems: list[str] = []
    attempted = 0
    start = time.perf_counter()
    r = 0
    while True:
        try:
            trials = wl.round(seed, r, smoke)
        except CheckFailed as exc:
            problems.append(f"round {r} inputs: {exc}")
            break
        for trial in trials:
            scope = tracer.trial(attempted) if trace else nullcontext()
            attempted += 1
            before = calibrator.last
            outcome = "ok"
            with scope:
                t0 = time.perf_counter()
                try:
                    out = trial.run()
                except Exception as exc:  # a failed trial is counted, not fatal
                    outcome = type(exc).__name__
                    print(f"trial {attempted - 1} ({trial.label}) failed: {exc!r}", file=sys.stderr)
                raw.append(time.perf_counter() - t0)
            durations.append(raw[-1] * calibrator.scale(before, calibrator.lap()))
            log.append([trial.label, durations[-1], raw[-1], outcome])
            if outcome != "ok":
                failures[outcome] = failures.get(outcome, 0) + 1
                continue
            try:
                checked = trial.check(out)
            except CheckFailed as exc:
                problems.append(f"trial {attempted - 1} ({trial.label}): {exc}")
                continue
            fidelities.append(checked["fidelity"])
            log[-1] += [checked["copies"], checked["gates"], checked["fidelity"]]
            point = by_point.setdefault(trial.label, {"s": [], "copies": [], "gates": []})
            point["s"].append(durations[-1])
            point["copies"].append(checked["copies"])
            point["gates"].append(checked["gates"])
            for sub, val in checked["breakdown"].items():
                breakdown[sub] = breakdown.get(sub, 0) + val
        r += 1
        if smoke or time.perf_counter() - start >= seconds:
            break
    failed = sum(failures.values())
    completed = attempted - failed
    busy = sum(durations)
    tps = completed / busy if busy > 0 else 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.uninstall()
        metrics = _layer_metrics(tracer, completed, breakdown, tps)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"wrote {len(tracer.spans)} spans ({tracer.dropped_spans} dropped) to {spans_path}")
    else:
        setups = [setup_main * calibrator.scale(first_lap, first_lap)]
        for _ in range(0 if smoke else SETUP_PROBES):
            before = calibrator.lap()
            elapsed = _probe_setup(name)
            setups.append(elapsed * calibrator.scale(before, calibrator.lap()))
        values = {
            "setup_s": _median(setups),
            "trials_per_s": tps,
            "trial_p50_s": _over_grid(by_point, "s", statistics.median),
            "peak_rss_mb": peak_rss_mb,
            # means: a grid point mixes trials of one and two loop iterations,
            # and its median flips between the two
            "copies_per_trial": _over_grid(by_point, "copies", statistics.mean),
            "gates_per_trial": _over_grid(by_point, "gates", statistics.mean),
            "fidelity_mean": float(sum(fidelities) / len(fidelities)) if fidelities else 0.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": r, "failures": failures, "problems": problems,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "trials": log,
    }


def _layer_metrics(tracer, completed: int, breakdown: dict, tps: float) -> dict:
    per = 1.0 / completed if completed else 0.0
    stats, counters = tracer.stats, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in _CALLS:
        values[f"{name}.calls"] = stats[name][0] * per
    for name in _SECONDS:
        values[f"{name}.s"] = stats[name][1] * per
    for name in _SELF:
        values[f"{name}.self_s"] = stats[name][2] * per
    values.update({
        "kernels.table_bytes": counters["table_bytes"] * per,
        "statevec.labels_sampled": counters["labels_sampled"] * per,
        "statevec.distribution_tables.builds": counters["table_builds"] * per,
        "statevec.table_cache_hit_ratio": ratio(counters["table_hits"], counters["table_calls"]),
        "statevec.gates_applied": counters["gates_applied"] * per,
        "selfcorrect.collect_yield": ratio(
            counters["collect_successes"], stats["selfcorrect.collect_small_doubling"][0]),
        "selfcorrect.bsg_accept_ratio": ratio(counters["bsg_accepted"], stats["selfcorrect.bsg_test"][0]),
        "iterate.iterations": counters["iterations"] * per,
    })
    for cls in FAILURE_CLASSES:
        values[f"selfcorrect.failures.{cls}"] = counters[f"failures.{cls}"] * per
    for name, (key, _) in LEDGER_ROWS.items():
        values[name] = breakdown.get(key, 0) * per
    values["traced.trials_per_s"] = tps
    units = per_layer_units()
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def _summary_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"rounds {result['rounds']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"failures {json.dumps(result['failures'])}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def _append(path, result: dict) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(result) + "\n")


# ---------------------------------------------------------------------------
# several workloads, each in its own process (peak RSS is per process)


def _child(name: str, seed: int, seconds: float, trace: int, out) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"last-{name}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(result_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    if out:
        _append(out, result)
    return result


def run_all(seed: int, seconds: float, trace: bool, out) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        plain = _child(name, seed, seconds, 0, out)
        _print_result(plain)
        results[name] = {"untraced": plain}
        if trace:
            traced = _child(name, seed, seconds, 1, out)
            _print_result(traced)
            a = plain["metrics"]["trials_per_s"]["value"]
            b = traced["metrics"]["traced.trials_per_s"]["value"]
            print(f"  tracing overhead on {name}: untraced {a:.4g} trial/s, traced {b:.4g} trial/s, "
                  f"ratio {a / b if b else float('inf'):.3f}")
            results[name]["traced"] = traced
    ok = all(r["untraced"]["correct"] and r.get("traced", r["untraced"])["correct"] for r in results.values())
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed")}
                      for name, rs in results.items() for r in [rs["untraced"]]}))
    return 0 if ok else 1


def run_smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, checks on."""
    ok = True
    units = per_layer_units()
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else None
    if spec is not None:
        want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if want_e2e != E2E_UNITS or want_layer != units:
            print("smoke: metric names or units differ from BENCHMARK.json")
            ok = False
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            t0 = time.perf_counter()
            result = run_workload(name, DEFAULT_SEED, 0, trace, smoke=True)
            good = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            ok &= good
            print(f"smoke {name} trace={int(trace)}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"({time.perf_counter() - t0:.2f} s)")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _, elapsed = _setup(args.setup_probe)
        print(repr(elapsed))
        return 0
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], SPEC)
    if args.smoke:
        _import_program()
        return run_smoke()
    if args.workload is None:
        parser.error("--workload, --smoke or --compare is required")
    if args.workload == "all":
        _import_program()
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        _append(args.out, result)
    _print_result(result)
    print(_summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
