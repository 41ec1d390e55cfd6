"""fedfall benchmark: one workload per process, a closed loop over simulate_full.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
One caller generates the workload's inputs from ``--seed``, then calls
``fedfall.simulate.simulate_full`` and waits for it, again and again, until
another call would end past ``--seconds``. Every call does the same work on
the same inputs, so the end-to-end metrics are medians over calls. With
``--trace 1`` the same loop runs, then one more call with every public
function of the six layers wrapped, and the per-layer metrics come from that
call. Metric names and units are declared in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An attempted
operation is one ``simulate_full`` call; it fails when it raises or any
output check on it fails. The line before it holds the environment and the
per-call detail.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on the 2-core reference machine, 2 threads made run_s
# spread wider than a tenth. Set before numpy loads OpenBLAS.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
# Set-up is sampled this many times before the closed loop and again after
# it; samples spread over the run average out drift in machine speed.
SETUP_REPEATS = 4

from spans import LAYERS, SPANS, TransportProbe, Tracer, percentiles_ms, rebound  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS,
    SMOKE_CORPUS,
    WORKLOADS,
    experiment_config,
    paper_projection_h,
)


class BenchError(Exception):
    """The benchmark cannot measure what it declares; nothing is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long corpus and model (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    return args


def import_package():
    """Import fedfall from this checkout's src/ and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "fedfall" / "__init__.py").is_file():
        raise BenchError(f"no fedfall package under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    import fedfall
    import fedfall.aggregation
    import fedfall.data
    import fedfall.federation
    import fedfall.nn
    import fedfall.secure_transport
    import fedfall.simulate

    location = Path(fedfall.__file__).resolve()
    if not location.is_relative_to(ROOT):
        raise BenchError(f"fedfall resolved to {location}, outside the checkout {ROOT}")
    return np, fedfall


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_sample(workload, args, corpus):
    """One set-up: a fresh process importing fedfall, then the inputs.

    Returns (seconds, data seconds, dataset, config).
    """
    import fedfall.data
    from fedfall.config import ExperimentConfig

    probe = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fedfall.simulate"
    started = perf_counter()
    subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True)
    data_started = perf_counter()
    dataset = fedfall.data.make_synthetic_dataset(seed=args.seed, **corpus)
    config = ExperimentConfig(**experiment_config(workload, args.seed, args.smoke))
    done = perf_counter()
    return done - started, done - data_started, dataset, config


# --- environment -------------------------------------------------------


def git_revision() -> str:
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
        return "unknown: not a git checkout"
    return "unknown"


def environment(np, fedfall, fingerprint: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "fedfall_file": str(Path(fedfall.__file__).resolve().relative_to(ROOT)),
        "fedfall_version": fedfall.__version__,
        "config_fingerprint": fingerprint,
    }


# --- one call ----------------------------------------------------------


def _prior_bce(p: float) -> float:
    """BCE of always predicting the minority share p that SMOTE trains at."""
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def one_call(workload, dataset, config, tracer=None) -> dict:
    """One simulate_full call with its output checks; never raises."""
    import numpy as np
    import fedfall.simulate
    from fedfall.nn import params_to_vector

    probe = TransportProbe()
    gc.collect()
    with rebound(probe.wrappers()), rebound(tracer.wrappers() if tracer else {}):
        started = perf_counter()
        try:
            result = fedfall.simulate.simulate_full(dataset, config, workload.scenario)
        except Exception as exc:  # a raising call is one failed operation
            run_s = perf_counter() - started
            traceback.print_exc()
            n = len(dataset.clients) * config.global_epochs
            return {"run_s": run_s, "failed_checks": [f"raised {exc!r}"],
                    "client_rounds": n, "ok_client_rounds": 0}
        run_s = perf_counter() - started

    failed = []
    train_rows = [e for e in result.round_log if "client" in e and "event" not in e]
    ok_rows = [e for e in train_rows if not e.get("skipped") and math.isfinite(e["loss"])]
    trained = sum(e["n_samples"] * e["epochs"] for e in ok_rows)
    epoch_windows = sum(e["n_samples"] for e in ok_rows if e["round"] == 0)

    if result.rounds_run != config.global_epochs:
        failed.append(f"rounds_run {result.rounds_run} != {config.global_epochs}")
    m = result.metrics
    curve = [v for row in result.loss_curve for k, v in row.items() if k != "round"]
    if not all(math.isfinite(v) for v in [m.accuracy, m.precision, m.recall, m.f1, *curve]):
        failed.append("non-finite metric or loss")
    vec = params_to_vector(result.global_params)
    if not np.all(np.isfinite(vec)):
        failed.append("non-finite final global vector")
    if config.encrypt_transport:
        if probe.calls != 2 * len(ok_rows):
            failed.append(f"{probe.calls} transport calls for {len(ok_rows)} updates")
        if not probe.max_err <= probe.bound * (1 + 1e-9):
            failed.append(f"roundtrip error {probe.max_err} above codec bound {probe.bound}")
    elif probe.calls:
        failed.append(f"{probe.calls} transport calls on a plaintext workload")
    if config.feedback_enabled:
        alerts = {r: 0 for r in range(result.rounds_run)}
        for e in result.round_log:
            if e.get("event") == "feedback":
                alerts[e["round"]] += e["alerts"]
        quiet = [r for r, n in alerts.items() if n == 0]
        if quiet:
            failed.append(f"no alert fired in rounds {quiet}")
    if trained == 0:
        failed.append("no window trained")
    loss = result.loss_curve[-1]["train_loss"]
    prior = _prior_bce(config.smote_target)
    if workload.learns and not loss < prior:
        failed.append(f"final train loss {loss} not below the constant predictor's {prior}")

    return {
        "run_s": run_s,
        "failed_checks": failed,
        "client_rounds": len(train_rows),
        "ok_client_rounds": len(ok_rows),
        "trained_windows": trained,
        "epoch_windows": epoch_windows,
        "final_train_loss": loss,
        "alerts": len(result.feedback_events),
        # information only: a change in arithmetic order legitimately moves it
        "digest": hashlib.sha256(vec.tobytes()).hexdigest()[:16],
        "roundtrip_max_err": probe.max_err,
    }


def closed_loop(workload, dataset, config, seconds: float) -> list:
    """Call simulate_full until another call would end past ``seconds``."""
    calls = []
    started = perf_counter()
    while True:
        calls.append(one_call(workload, dataset, config))
        typical = statistics.median(c["run_s"] for c in calls)
        if perf_counter() - started + typical > seconds:
            return calls


# --- metrics -----------------------------------------------------------


def end_to_end(calls: list, setup_s: float, corpus: dict) -> dict:
    done = [c for c in calls if "trained_windows" in c]
    if not done:
        raise BenchError("every call raised: " + calls[0]["failed_checks"][0])
    run_s = statistics.median(c["run_s"] for c in done)
    rate = statistics.median(c["trained_windows"] / c["run_s"] for c in done)
    projection = statistics.median(
        paper_projection_h(c["epoch_windows"], c["trained_windows"] / c["run_s"], corpus)
        for c in done
    )
    attempted = sum(c["client_rounds"] for c in calls)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "train_windows_per_s": (rate, "1/s"),
        "paper_projection_h": (projection, "h"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (sum(c["ok_client_rounds"] for c in calls) / attempted, "share"),
    }


def per_layer(tracer: Tracer, traced: dict, untraced_run_s: float, dataset_s: float) -> dict:
    stats = tracer.span_stats()
    out = {}
    for span in SPANS:
        st = stats.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []})
        p50, p90 = percentiles_ms(st["ms"])
        out[f"{span}.calls"] = (st["calls"], "count")
        out[f"{span}.s"] = (st["s"], "s")
        out[f"{span}.self_s"] = (st["self_s"], "s")
        out[f"{span}.p50_ms"] = (p50, "ms")
        out[f"{span}.p90_ms"] = (p90, "ms")

    run_s = traced["run_s"]
    for layer in LAYERS:
        own = sum(st["self_s"] for name, st in stats.items() if name.startswith(layer + "."))
        out[f"layer.{layer}.share"] = (own / run_s, "share")

    counters = tracer.counters
    for name in (
        "nn.model_forward.eval_bulk.windows",
        "data.stack_windows.windows",
        "aggregation.coords",
        "secure_transport.encrypt_vector.coords",
        "secure_transport.decrypt_vector.coords",
    ):
        out[name] = (counters.get(name, 0.0), "count")
    for op in ("encrypt_vector", "decrypt_vector"):
        coords = counters.get(f"secure_transport.{op}.coords", 0.0)
        busy = out[f"secure_transport.{op}.s"][0]
        out[f"secure_transport.{op}.ms_per_coord"] = (1000.0 * busy / coords if coords else 0.0, "ms")
    out["secure_transport.ciphertext_bytes"] = (counters.get("secure_transport.ciphertext_bytes", 0.0), "bytes")
    out["secure_transport.roundtrip_max_err"] = (traced["roundtrip_max_err"], "abs")

    screened = stats.get("federation.alert_and_feedback", {"calls": 0})["calls"]
    alerts = counters.get("federation.alerts", 0.0)
    out["federation.alert_ratio"] = (alerts / screened if screened else 0.0, "ratio")
    out["federation.confirmed_ratio"] = (counters.get("federation.confirmed", 0.0) / alerts if alerts else 0.0, "ratio")

    # A round runs from one run_round start to the next; the last one
    # ends with simulate_full and so includes the test evaluation.
    starts = [start for name, start, _, _ in tracer.spans if name == "federation.run_round"]
    ends = [end for name, _, end, _ in tracer.spans if name == "simulate.simulate_full"]
    walls = [b - a for a, b in zip(starts, starts[1:] + ends[-1:])]
    out["simulate.round_wall_s.p50"] = (statistics.median(walls) if walls else 0.0, "s")
    out["simulate.round_wall_s.max"] = (max(walls, default=0.0), "s")
    out["trace.overhead_s"] = (run_s - untraced_run_s, "s")
    out["data.make_synthetic_dataset.s"] = (dataset_s, "s")
    return out


def check_layers(workload, stats: dict) -> list:
    """Layers and spans the workload must reach, and the spans it must bypass."""
    problems = []
    for layer in workload.layers:
        if not any(st["calls"] for name, st in stats.items() if name.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded zero calls")
    for name in workload.spans:
        if not stats.get(name, {}).get("calls"):
            problems.append(f"span {name} recorded zero calls")
    for name in workload.bypassed:
        if stats.get(name, {}).get("calls"):
            problems.append(f"span {name} was predicted to be bypassed but recorded calls")
    return problems


# --- main --------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    np, fedfall = import_package()
    import_s = perf_counter() - _PROCESS_START

    corpus = SMOKE_CORPUS if args.smoke else CORPUS
    setups = []  # (set-up seconds, data seconds); one dataset is kept
    for _ in range(SETUP_REPEATS):
        *times, dataset, config = setup_sample(workload, args, corpus)
        setups.append(times)
    calls = closed_loop(workload, dataset, config, args.seconds)
    setups += [setup_sample(workload, args, corpus)[:2] for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s[0] for s in setups)
    dataset_s = statistics.median(s[1] for s in setups)
    metrics = end_to_end(calls, setup_s, corpus)
    untraced_run_s = metrics["run_s"][0]

    if args.trace:
        tracer = Tracer()
        traced = one_call(workload, dataset, config, tracer)
        calls.append(traced)
        if "digest" not in traced:
            raise BenchError("traced call raised: " + traced["failed_checks"][0])
        problems = check_layers(workload, tracer.span_stats())
        if problems:
            raise BenchError("; ".join(problems))
        metrics = per_layer(tracer, traced, untraced_run_s, dataset_s)

    digests = {c["digest"] for c in calls if "digest" in c}
    if len(digests) > 1:
        for c in calls:
            c["failed_checks"].append(f"calls on identical inputs disagree: {sorted(digests)}")

    want = declared[args.trace]
    missing = sorted(set(want) - set(metrics))
    wrong_unit = sorted(n for n in want if n in metrics and metrics[n][1] != want[n])
    if missing or wrong_unit:
        raise BenchError(f"metrics missing {missing}, units differ {wrong_unit}")
    not_finite = sorted(n for n in want if not math.isfinite(metrics[n][0]))
    if not_finite:
        raise BenchError(f"non-finite metrics {not_finite}")

    failed = sum(1 for c in calls if c["failed_checks"])
    for name in want:
        print(f"{name} = {metrics[name][0]:.6g} {want[name]}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "config": experiment_config(workload, args.seed, args.smoke),
        "corpus": corpus,
        "env": environment(np, fedfall, config.fingerprint()),
        "import_s": import_s,
        "setup_s": [s[0] for s in setups],
        "dataset_s": [s[1] for s in setups],
        "calls": calls,
    }
    print(json.dumps(detail, sort_keys=True, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n][0]), "unit": want[n]} for n in want},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
