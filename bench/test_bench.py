"""Smoke test of the benchmark itself: every workload at a tiny size.

Run with ``python -m pytest bench/test_bench.py``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics each workload reports, beyond those in the result line.
WORKLOAD_METRICS = {
    "pretrain": ("train_views_per_s", "best_val_loss", "error_rate"),
    "ingest": ("ingest_leads_per_s", "error_rate"),
    "ablate": ("train_views_per_s", "embed_signals_per_s", "probe_auroc", "error_rate"),
}
TINY = ("--seed", "3", "--seconds", "1", "--size", "tiny")


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _printed_units(report_lines) -> dict[str, str]:
    """name -> unit of every ``name value unit ...`` report line."""
    units = {}
    for line in report_lines:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith(("#", "fingerprint", "span ")):
            float(fields[1])
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    printed = _printed_units(report)
    expected = dict(spec)
    if not trace:
        expected.update({name: printed.get(name) for name in WORKLOAD_METRICS[workload]})
    for name, unit in expected.items():
        assert unit and printed.get(name) == unit, name
    assert any(line.startswith(f"fingerprint {workload} sha256=") for line in report)


def test_failed_output_check_fails_the_command(monkeypatch, capsys):
    """A preprocessing result that is not z-scored must fail the ingest run."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    from riskclr import signal

    zscore = signal.zscore
    monkeypatch.setattr(signal, "zscore", lambda x: (2.0 * zscore(x)[0], False))
    code = run.main(["--workload", "ingest", *TINY])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_differing_fingerprints_fail_the_command(monkeypatch, capsys):
    """Two units of one run that behave differently must fail it."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    calls = itertools.count()
    monkeypatch.setattr(workloads.Ingest, "fingerprint", lambda self, *a: str(next(calls)))
    code = run.main(["--workload", "ingest", "--trace", "1", *TINY])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and next(calls) >= 2


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pretrain", *TINY)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
