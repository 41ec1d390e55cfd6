"""Command-line experiment runner.

Subcommands: prepare-data, train, evaluate, sweep, secure-demo, gradcheck.
Exit codes: 0 success; 1 for bad flags or any ``ValueError`` (every
validation error in ``fedfall.errors`` subclasses it: bad config, bad input
data); 2 for any other package error or an ``OSError``.

Every subcommand takes ``--log-level`` (DEBUG, INFO, WARNING or ERROR;
default WARNING): the package's log records at that level and above go to
stderr, as ``LEVEL:logger:message`` lines.

Every run writes self-describing artifacts into its output directory:
``metrics.json`` (final report), ``round_log.jsonl`` (one structured
record per client per round), ``loss_curve.csv`` (per-round training loss
and validation scores for external plotting), ``predictions.json``
(per-window probabilities and labels, enough to recompute every metric),
and ``config.cfg`` (the resolved configuration, reloadable as-is).
"""

from __future__ import annotations

import argparse
import json
import logging
import random as _random
import sys
import time
from pathlib import Path

import numpy as np

from fedfall.config import FIELD_TYPES, ExperimentConfig, config_to_text, load_config
from fedfall.data.cache import load_dataset, save_dataset
from fedfall.data.pipeline import prepare_dataset
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.errors import ConfigError, FedfallError
from fedfall.metrics import report_from_probabilities
from fedfall.nn import gradient_check, init_params
from fedfall.secure_transport import keygen, secure_mean_demo
from fedfall.simulate import SCENARIOS, SimulationResult, simulate_full


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _bounded(convert, accept, rule: str):
    """An argparse type: ``convert`` the text and keep it if ``accept`` holds."""

    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_count = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_tolerance = _bounded(float, lambda v: 0.0 < v < float("inf"), "a finite number > 0")


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="override the config seed")


def _add_run_options(p: argparse.ArgumentParser, out_help: str) -> None:
    """The options of a command that runs a scenario: config, data source, output."""
    _add_config_options(p)
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--data", help="dataset cache from prepare-data")
    p.add_argument("--synthetic", action="store_true", help="use the synthetic corpus")
    p.add_argument("--out", help=out_help)


def _resolve_config(args) -> ExperimentConfig:
    overrides: dict = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def _load_split(args, config: ExperimentConfig):
    if args.synthetic:
        return make_synthetic_dataset(
            seed=config.seed, window=config.window, stride=config.stride
        )
    data = args.data or config.cache_path
    if not data:
        raise ConfigError("no dataset: pass --data CACHE or --synthetic")
    split = load_dataset(data)
    if split.window_shape and split.window_shape[0] != config.window:
        raise ConfigError(
            f"{data}: windows of {split.window_shape[0]} steps, but config window is "
            f"{config.window}; pass --set window={split.window_shape[0]}"
        )
    return split


def _check_out_dir(path: Path) -> None:
    """Refuse, before any work, an output directory that ``mkdir`` could not make."""
    existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} exists and is not a directory")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )


def _write_run_outputs(
    result: SimulationResult, config: ExperimentConfig, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "metrics": result.metrics.to_dict(),
        "rounds_run": result.rounds_run,
        "best_round": result.best_round,
        "feedback_events": len(result.feedback_events),
    }
    _write_json(out_dir / "metrics.json", report)
    with open(out_dir / "round_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.round_log:
            fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    with open(out_dir / "loss_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("round,train_loss,val_recall,val_f1\n")
        for row in result.loss_curve:
            fh.write(
                f"{row['round']},{row['train_loss']!r},{row['val_recall']!r},{row['val_f1']!r}\n"
            )
    predictions = {
        "scenario": result.metrics.scenario,
        "seed": result.metrics.seed,
        "config_fingerprint": result.metrics.config_fingerprint,
        "threshold": config.classification_threshold,
        "clients": {
            cid: {
                "probabilities": [float(p) for p in result.test_probabilities[cid]],
                "labels": [int(l) for l in result.test_labels[cid]],
            }
            for cid in sorted(result.test_probabilities)
        },
    }
    _write_json(out_dir / "predictions.json", predictions)
    (out_dir / "config.cfg").write_text(config_to_text(config), encoding="utf-8")


def _run(args, config: ExperimentConfig, out_dir: Path) -> None:
    """Load the data ``config`` describes, run it, write the artifacts and print the metrics."""
    result = simulate_full(_load_split(args, config), config, args.scenario)
    _write_run_outputs(result, config, out_dir)
    metrics = result.metrics
    print(
        f"scenario={metrics.scenario} seed={metrics.seed} rounds={result.rounds_run} "
        f"accuracy={metrics.accuracy:.4f} precision={metrics.precision:.4f} "
        f"recall={metrics.recall:.4f} f1={metrics.f1:.4f}"
    )
    for cid in sorted(metrics.per_client):
        rec = metrics.per_client[cid]
        print(f"  recall[{cid}] = {'undefined' if rec is None else format(rec, '.4f')}")


def cmd_prepare_data(args) -> int:
    config = _resolve_config(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.synthetic:
        split = _load_split(args, config)
        save_dataset(out, split)
        print(f"synthetic dataset: {len(split.train)} train / {len(split.test)} test windows")
    else:
        csv_path = args.csv or config.data_path
        if not csv_path:
            raise ConfigError("no data source: pass --csv CSV or --synthetic, or set data_path")
        split, stats = prepare_dataset(
            csv_path,
            window=config.window,
            stride=config.stride,
            seed=config.seed,
            cache_path=out,
        )
        print(
            f"parsed {stats.n_records} records ({stats.malformed_rows} malformed rows)"
        )
        if stats.skipped_sequences:
            print(f"skipped sequences missing sensors: {', '.join(stats.skipped_sequences)}")
        print(f"windows: {len(split.train)} train / {len(split.test)} test")
    print(f"cache written to {out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out or config.output_dir)
    _check_out_dir(out_dir)
    _run(args, config, out_dir)
    print(f"artifacts in {out_dir}")
    return 0


def _load_predictions(path: str, need_threshold: bool) -> dict:
    """Read a ``predictions.json``; raise ValueError naming the file if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            saved = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(saved, dict) or not isinstance(saved.get("clients"), dict):
        raise ValueError(f"{path}: not an object with a clients object")
    threshold = saved.get("threshold")
    if need_threshold and not (type(threshold) in (int, float) and 0.0 < threshold < 1.0):
        raise ValueError(f"{path}: no threshold in (0, 1); pass --threshold")
    for key in ("scenario", "config_fingerprint"):
        if key in saved and not isinstance(saved[key], str):
            raise ValueError(f"{path}: {key} is not a string")
    if "seed" in saved and not (type(saved["seed"]) is int and saved["seed"] >= 0):
        raise ValueError(f"{path}: seed is not an integer >= 0")
    for cid, entry in saved["clients"].items():
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), list) for key in ("probabilities", "labels")
        ):
            raise ValueError(f"{path}: client {cid!r} lacks probabilities and labels lists")
        probs, labels = entry["probabilities"], entry["labels"]
        if len(probs) != len(labels):
            raise ValueError(
                f"{path}: client {cid!r} has {len(probs)} probabilities for {len(labels)} labels"
            )
        # json gives bools for true/false and floats for NaN/Infinity; all are refused
        if not all(type(p) in (int, float) and 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"{path}: client {cid!r} has a probability outside [0, 1]")
        if not all(type(label) is int and label in (0, 1) for label in labels):
            raise ValueError(f"{path}: client {cid!r} has a label other than 0 or 1")
    if not any(entry["labels"] for entry in saved["clients"].values()):
        raise ValueError(f"{path}: no windows to evaluate")
    return saved


def cmd_evaluate(args) -> int:
    saved = _load_predictions(args.predictions, need_threshold=args.threshold is None)
    threshold = args.threshold if args.threshold is not None else saved["threshold"]
    clients = saved["clients"]
    metrics = report_from_probabilities(
        {cid: entry["probabilities"] for cid, entry in clients.items()},
        {cid: entry["labels"] for cid, entry in clients.items()},
        threshold,
        saved.get("scenario", ""),
        saved.get("config_fingerprint", ""),
        saved.get("seed", 0),
    )
    payload = json.dumps(metrics.to_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def _sweep_values(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise ConfigError(f"--param expects NAME=START:STOP:STEP, got {spec!r}")
    name, _, grid = spec.partition("=")
    name = name.strip()
    parts = grid.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--param expects NAME=START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--param grid must be numeric, got {grid!r}") from None
    if not np.isfinite([start, stop, step]).all():
        raise ConfigError(f"--param grid must be finite, got {grid!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"--param grid must satisfy start <= stop, step > 0, got {grid!r}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(round(v, 12))
        k += 1
    return name, values


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    name, values = _sweep_values(args.param)
    if name not in FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    if FIELD_TYPES[name] not in ("int", "float"):
        raise ConfigError(f"{name} is not numeric; only int/float fields sweep")
    if name in ("window", "stride") and not args.synthetic:
        raise ConfigError(f"a cache fixes window and stride; a {name} grid needs --synthetic")
    base_out = Path(args.out or config.output_dir)
    is_int = FIELD_TYPES[name] == "int"
    runs = {}  # every grid value is checked before the first run writes
    for value in values:
        typed = int(value) if is_int else value
        if typed != value:
            raise ConfigError(f"{name} is integer-valued; grid produced {value}")
        # integers in full; floats to the 12 digits the grid rounds to
        run_name = f"{name}={typed}" if is_int else f"{name}={value:.12g}"
        if run_name in runs:
            raise ConfigError(f"grid values {run_name} and {value!r} share one run directory")
        _check_out_dir(base_out / run_name)
        runs[run_name] = config.replace(**{name: typed})
    for run_name, run_config in runs.items():
        _run(args, run_config, base_out / run_name)
    print(f"{len(runs)} runs in {base_out}")
    return 0


def cmd_secure_demo(args) -> int:
    config = _resolve_config(args)
    rng = np.random.default_rng(config.seed)
    updates = [rng.uniform(-1.0, 1.0, size=args.dim) for _ in range(args.clients)]
    started = time.perf_counter()
    key = keygen(config.he_key_bits, seed=config.seed)
    secure = secure_mean_demo(updates, key, config.codec, _random.Random(config.seed))
    elapsed = time.perf_counter() - started
    plain = np.mean(np.stack(updates), axis=0)
    err = float(np.max(np.abs(secure - plain)))
    print(
        f"clients={args.clients} dim={args.dim} key_bits={config.he_key_bits} "
        f"max_abs_error={err:.3e} seconds={elapsed:.2f}"
    )
    if err > 1e-5:
        print("secure mean deviates from plaintext mean beyond 1e-5", file=sys.stderr)
        return 2
    return 0


def cmd_gradcheck(args) -> int:
    config = _resolve_config(args)
    started = time.perf_counter()
    worst = 0.0
    failures = 0
    for i in range(args.models):
        rng = np.random.default_rng(config.seed + i)
        hidden = 4 if i % 2 == 0 else 8
        params = init_params(args.features, hidden, rng)
        batch = rng.normal(size=(3, args.timesteps, args.features))
        labels = rng.integers(0, 2, size=3).astype(np.float64)
        report = gradient_check(
            params, batch, labels, n_coords=args.coords, tol=args.tol, rng=rng
        )
        worst = max(worst, report.max_rel_err)
        failures += len(report.failures)
    elapsed = time.perf_counter() - started
    print(
        f"models={args.models} coords={args.coords} "
        f"max_rel_err={worst:.3e} tol={args.tol:g} seconds={elapsed:.1f}"
    )
    if worst >= args.tol or failures:
        print(f"gradient check failed on {failures} coordinates", file=sys.stderr)
        return 1
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fedfall", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="build the binary dataset cache")
    _add_config_options(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--csv", help="raw localization-data CSV (default: config data_path)")
    src.add_argument("--synthetic", action="store_true", help="generate the synthetic corpus")
    p.add_argument("--out", required=True, help="cache file to write")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="run one scenario end to end")
    _add_run_options(p, "output directory (default: config output_dir)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="recompute metrics from saved predictions")
    p.add_argument("--predictions", required=True, help="predictions.json from a train run")
    p.add_argument("--threshold", type=float, help="override the stored threshold")
    p.add_argument("--out", help="write the report here as well as stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    _add_run_options(p, "parent directory for per-value runs")
    p.add_argument("--param", required=True, metavar="NAME=START:STOP:STEP")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("secure-demo", help="encrypted aggregation demonstration")
    _add_config_options(p)
    p.add_argument("--clients", type=_count, default=5)
    p.add_argument("--dim", type=_count, default=1000)
    p.set_defaults(func=cmd_secure_demo)

    p = sub.add_parser("gradcheck", help="finite-difference check of the network gradients")
    _add_config_options(p)
    p.add_argument("--models", type=_count, default=20)
    p.add_argument("--coords", type=_count, default=25, help="coordinates sampled per model")
    p.add_argument("--timesteps", type=_count, default=5)
    p.add_argument("--features", type=_count, default=3)
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    for p in sub.choices.values():
        p.add_argument(
            "--log-level",
            type=str.upper,
            choices=LOG_LEVELS,
            default="WARNING",
            help="least severe package log records shown on stderr (default: WARNING)",
        )
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    package_logger = logging.getLogger("fedfall")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s:%(name)s:%(message)s"))
    saved_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FedfallError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(saved_level)


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
