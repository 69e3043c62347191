"""riskclr benchmark: one workload per process, untraced or traced.

    python3 bench/run.py --workload {pretrain,ingest,ablate,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

The workload's inputs come from ``--seed``. The run times the benchmark's
imports in fresh interpreters and sets the workload up, several times each
(``setup_s`` is the sum of the two medians). It then repeats timed units of
the workload and checks every unit's outputs and that all units give the same
behaviour fingerprint. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced units and reports calls,
total and self time per span and the per-layer metrics from the traced ones
(see tracing.py). Every line but the last is a readable report; the last line
is one JSON object with the keys correct, attempted, failed and metrics. The
exit code is non-zero when a check fails, and 2 when the riskclr sources are
missing. ``--workload all`` runs each workload in its own process. Spans and
a full result file go to ``.bench_out/``.

``--seconds`` bounds the whole run, imports and set-ups included: a unit
starts only while the median unit still fits. At least one unit runs, two
when traced, so a run lasts longer than ``--seconds`` when its units are long.
BLAS runs on one thread.
"""

import time

_T0 = time.perf_counter()

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pretrain", "ingest", "ablate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Printed in the result line of every untraced run (name -> unit).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed in the report of the workloads that produce them.
WORKLOAD_METRICS = {"train_views_per_s": "1/s", "ingest_leads_per_s": "1/s",
                    "embed_signals_per_s": "1/s", "best_val_loss": "loss",
                    "probe_auroc": "ratio", "error_rate": "ratio"}


def _layers(inst, name):
    return inst["layers"].get(name, (0, 0.0, 0.0))


def _total(*names):
    return lambda inst: sum(_layers(inst, n)[1] for n in names)


def _self(name):
    return lambda inst: _layers(inst, name)[2]


def _calls(name):
    return lambda inst: _layers(inst, name)[0]


def _count(key, scale=1.0):
    return lambda inst: inst["counts"].get(key, 0) * scale


# Per-layer metrics: name -> (unit, extractor). An extractor maps one traced
# set-up or unit to a number; a pair of extractors is a ratio of the two.
PER_LAYER = {
    "autodiff.conv1d_s": ("s", _total("autodiff.conv1d")),
    "autodiff.backward_s": ("s", _total("autodiff.backward")),
    "autodiff.swish_s": ("s", _total("autodiff.swish")),
    "autodiff.dense_s": ("s", _total("autodiff.dense")),
    "autodiff.conv1d_calls": ("count", _calls("autodiff.conv1d")),
    "autodiff.conv1d_useful_flop_ratio": (
        "ratio", (_count("conv1d.useful_flops"), _count("conv1d.run_flops"))),
    "encoder.forward_self_s": ("s", _self("encoder.forward")),
    "encoder.embed_s": ("s", _total("encoder.embed")),
    "encoder.checkpoint_s": ("s", _total("encoder.save_checkpoint", "encoder.load_checkpoint")),
    "signal.noise_bank_s": ("s", _total("signal.noise_bank")),
    "signal.noise_bank_builds": ("count", _calls("signal.noise_bank")),
    "signal.resample_s": ("s", _total("signal.resample")),
    "signal.bandpass_s": ("s", _total("signal.bandpass")),
    "signal.bandpass_rows_per_call": (
        "rows/call", (_count("bandpass.rows"), _calls("signal.bandpass"))),
    "signal.zscore_s": ("s", _total("signal.zscore")),
    "signal.view_s": ("s", _total("signal.augment", "signal.random_mask")),
    "weighting.batch_weights_s": ("s", _total("weighting.batch_weights")),
    "losses.evaluate_s": ("s", _total("losses.evaluate")),
    "losses.cosine_matrix_per_batch": (
        "calls/batch", (_calls("losses.cosine_matrix"), _calls("losses.evaluate"))),
    "train.optimizer_s": ("s", _total("train.optimizer_step")),
    "data.generate_s": ("s", _total("data.generate_synthetic")),
    "data.container_s": ("s", _total("data.save_bytes", "data.load_bytes")),
    "data.container_mb": ("MB", _count("container.bytes", 1e-6)),
    "risk_score.score_s": ("s", _total("risk_score.risk_from_record")),
    "train.pretrain_self_s": ("s", _self("train.pretrain")),
    "train.probe_self_s": ("s", _self("train.linear_probe")),
    "train.pretrain_calls": ("count", _calls("train.pretrain")),
    "metrics.auroc_s": ("s", _total("metrics.auroc_binary")),
}
TRACE_METRICS = {"trace.untraced_s": "s", "trace.overhead_s": "s"}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    values = sorted(values)
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _line(name, value, unit, note=""):
    print(f"{name:<36} {value:>14.6g} {unit:<11} {note}".rstrip())


def import_walls(runs: int) -> list[float]:
    """Wall seconds of the benchmark's imports in ``runs`` fresh interpreters."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import tracing, workloads; print(time.perf_counter() - t)")
    cmd = [sys.executable, "-c", code, str(SRC), str(BENCH)]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
            for _ in range(runs)]


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": vendor,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "numpy": np.__version__, "python": platform.python_version()}


def layer_value(spec, setups: list[dict], units: list[dict]) -> float:
    """A layer's cost in one set-up plus one timed unit (median of each)."""
    def per_phase(fn):
        return sum(statistics.median(fn(i) for i in group) for group in (setups, units) if group)

    if isinstance(spec, tuple):
        num, den = (per_phase(fn) for fn in spec)
        return num / den if den else 0.0
    return per_phase(spec)


def run_units(bench, state, args, probe, full, work_dir: Path) -> tuple[list[dict], int, int]:
    """Timed units until the next would overrun ``--seconds`` from process
    start; each is checked.

    Traced runs alternate untraced and traced units, starting untraced.
    """
    units, attempted, failed = [], 0, 0
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        tracer = full if traced else probe
        unit_dir = work_dir / f"unit{len(units)}"
        unit_dir.mkdir(parents=True)
        n = bench.attempted(state)
        tracer.last_root = None
        record = {"traced": traced}
        try:
            outcome = bench.run(state, functools.partial(tracer.root, "bench.unit"), unit_dir)
            problems, bad = bench.check(state, outcome, unit_dir)
        except Exception:
            traceback.print_exc()
            problems, bad = ["exception"], n
        attempted += n
        failed += bad
        for problem in problems:
            print(f"check failed ({bench.name}): {problem}", file=sys.stderr)
        if tracer.last_root is not None:
            record["summary"] = tracer.instance(tracer.last_root)
            record["wall"] = record["summary"]["wall"]
        if not problems:
            record["metrics"] = bench.metrics(state, outcome, record["summary"])
            record["fingerprint"] = bench.fingerprint(state, outcome)
        units.append(record)
        shutil.rmtree(unit_dir)
        walls = [u["wall"] for u in units if "wall" in u]
        enough = len(units) >= (2 if args.trace else 1)
        if enough and (not walls or time.perf_counter() - _T0 + _median(walls) > args.seconds):
            return units, attempted, failed


def end_to_end(setup_s: float, setups, units, failed: int, attempted: int) -> dict:
    good = [u for u in units if "metrics" in u]
    values = {
        "setup_s": (setup_s, f"median of {len(setups)} imports + median of {len(setups)} set-ups"),
        "wall_s": (_median(u["wall"] for u in good), _spread(u["wall"] for u in good)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "whole process"),
    }
    for key in good[0]["metrics"] if good else ():
        samples = [u["metrics"][key] for u in good]
        values[key] = (_median(samples), _spread(samples))
    values["error_rate"] = (failed / attempted if attempted else 1.0,
                           f"{failed} of {attempted} operations")
    return values


def span_table(setups, traced) -> dict[str, tuple[float, float, float]]:
    """Calls, total and self seconds per span name (one set-up + one unit)."""
    names = sorted({name for inst in setups + traced for name in inst["layers"]})
    return {name: tuple(layer_value(fn(name), setups, traced) for fn in (_calls, _total, _self))
            for name in names}


def per_layer(setups, traced, plain) -> dict:
    n = f"{len(setups)} set-ups + {len(traced)} traced units"
    values = {name: (layer_value(spec, setups, traced), n) for name, (_, spec) in PER_LAYER.items()}
    untraced = _median(t["untraced"] for t in traced)
    wall = _median(t["wall"] for t in traced)
    values["trace.untraced_s"] = (untraced, f"{1 - untraced / wall:.1%} of traced wall_s in spans")
    values["trace.overhead_s"] = (wall - _median(plain),
                                  f"traced {wall:.6g} s vs untraced {_median(plain):.6g} s")
    return values


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    bench = workloads.WORKLOADS[args.workload]()
    size = bench.sizes[args.size]
    imports = import_walls(size["setups"])
    targets = tracing.layer_targets()
    probe = tracing.Tracer(t for t in targets if t[2] in bench.probes)
    full = tracing.Tracer(targets if args.trace else ())
    work_dir = OUT / f"work-{os.getpid()}"
    host = host_facts()
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    try:
        setups = []
        for _ in range(size["setups"]):
            state = None  # release the previous set-up's data first
            with full.root("bench.setup"):
                state = bench.setup(args.seed, size)
            setups.append(full.instance(full.last_root))
        units, attempted, failed = run_units(bench, state, args, probe, full, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    fingerprints = {u["fingerprint"] for u in units if "fingerprint" in u}
    if len(fingerprints) > 1:
        print(f"check failed ({bench.name}): units gave {len(fingerprints)} different "
              "behaviour fingerprints", file=sys.stderr)
    setup_s = _median(imports) + _median(s["wall"] for s in setups)
    spans = {}
    if args.trace:
        traced = [u["summary"] for u in units if u["traced"] and "summary" in u]
        plain = [u["wall"] for u in units if not u["traced"] and "wall" in u]
        values = per_layer(setups, traced, plain)
        spans = span_table(setups, traced)
        unit_of = {**{k: u for k, (u, _) in PER_LAYER.items()}, **TRACE_METRICS}
    else:
        values = end_to_end(setup_s, setups, units, failed, attempted)
        unit_of = {**END_TO_END, **WORKLOAD_METRICS}
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"units={len(units)} setups={len(setups)} import_s={_median(imports):.4f}")
    for name, (calls, total, self_s) in spans.items():
        print(f"span {name:<32} calls={calls:<8g} total_s={total:<12.6g} self_s={self_s:.6g}")
    for name, (value, note) in values.items():
        _line(name, value, unit_of[name], note)
    print(f"fingerprint {args.workload} sha256={','.join(sorted(fingerprints)) or 'none'}")

    correct = failed == 0 and len(fingerprints) == 1
    shown = values.keys() if args.trace else END_TO_END.keys()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of[k]}
                          for k, (v, _) in values.items() if k in shown}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"host": host, "args": vars(args), "fingerprints": sorted(fingerprints),
                   "import_walls": imports, "setup_walls": [s["wall"] for s in setups],
                   "unit_walls": [[u["traced"], u.get("wall")] for u in units],
                   "spans": {k: dict(zip(("calls", "total_s", "self_s"), v))
                             for k, v in spans.items()},
                   "values": {k: {"value": v, "unit": unit_of[k], "note": note}
                              for k, (v, note) in values.items()}, "result": result}, fh, indent=1)
    if args.trace:
        full.dump(f"{stem}-spans.json")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except (IndexError, ValueError):
            result = None
        print("\n".join(lines), flush=True)
        if proc.returncode or result is None:
            merged["correct"] = False
        if result:
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "riskclr" / "__init__.py").is_file():
        print(f"error: riskclr sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    sys.exit(main())
