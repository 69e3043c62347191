"""Command-line entry point tying the pipeline together.

Subcommands: score2, gen-data, pretrain, probe, finetune, ablate, gradcheck,
eval, inspect. Every run writes into a run directory: the effective config is
echoed as JSON, metrics land in CSV files, and reruns with the same config
and seed reproduce outputs byte-for-byte (modulo file timestamps).

Exit codes: 0 success; 2 config or input error (bad JSON, keys or values, a
resume under another config, a dataset whose sample rate has no exact ratio
to 500 Hz, a bad predictions CSV); 3 missing input file; 4 non-finite loss
abort; 1 anything else.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NAN = 4


class CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _load_config_file(path: str | None, *sections: str) -> dict:
    """The JSON object in ``path`` ({} without a path); each of ``sections``
    that it holds must be an object too."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {path}", EXIT_MISSING_INPUT)
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config parse error in {path}: {exc}", EXIT_CONFIG)
    if not isinstance(raw, dict):
        raise CliError(f"config file {path} must hold a JSON object, got {type(raw).__name__}",
                       EXIT_CONFIG)
    for key in sections:
        if not isinstance(raw.get(key, {}), dict):
            raise CliError(f"config file {path}: {key!r} must be a JSON object, "
                           f"got {type(raw[key]).__name__}", EXIT_CONFIG)
    return raw


def _dataclass_from(section: dict, cls, overrides: dict):
    from riskclr.losses import LossSpec

    known = {f.name for f in dataclasses.fields(cls)}
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - known
    if unknown:
        raise CliError(f"unknown {cls.__name__} keys: {sorted(unknown)}", EXIT_CONFIG)
    try:
        if isinstance(merged.get("loss"), dict):
            merged["loss"] = LossSpec(**merged["loss"])
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {cls.__name__}: {exc}", EXIT_CONFIG)


def _echo_config(run_dir: Path, payload: dict) -> None:
    from riskclr.container import write_atomic

    run_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    write_atomic(run_dir / "config.json", text.encode("utf-8"))


def _encoder_config(name: str):
    from riskclr.encoder import STANDARD_CONFIGS

    key = name.lower()
    if key not in STANDARD_CONFIGS:
        raise CliError(f"unknown encoder config {name!r}; choices: "
                       f"{sorted(STANDARD_CONFIGS)}", EXIT_CONFIG)
    return STANDARD_CONFIGS[key]


def _csv_reader(fh, path: str, columns) -> csv.DictReader:
    """A ``csv.DictReader`` over ``fh``; exit 2 naming the first of ``columns``
    its header lacks (other columns are allowed)."""
    reader = csv.DictReader(fh)
    absent = [c for c in columns if c not in (reader.fieldnames or ())]
    if absent:
        raise CliError(f"{path} has no {absent[0]!r} column", EXIT_CONFIG)
    return reader


@click.group()
def main() -> None:
    """Risk-guided contrastive pretraining for single-lead ECG encoders."""


@main.command("score2")
@click.option("--input", "input_path", required=True, help="metadata CSV (age,gender,smoking,sbp,diabetes,tchol,hdl)")
@click.option("--output", "output_path", default="-", help="output CSV path or - for stdout")
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
@click.option("--deterministic/--stochastic", default=True, show_default=True,
              help="imputation mode for missing covariates")
def score2_cmd(input_path, output_path, seed, deterministic):
    """Score metadata rows; emits r and m per row."""
    from riskclr.container import write_csv
    from riskclr.risk_score import CSV_COLUMNS, record_from_csv_row, risk_from_record

    path = Path(input_path)
    if not path.exists():
        raise CliError(f"input not found: {input_path}", EXIT_MISSING_INPUT)
    rows_out = []
    with open(path, newline="") as fh:
        reader = _csv_reader(fh, input_path, CSV_COLUMNS)
        for i, row in enumerate(reader):
            try:
                record = record_from_csv_row(row)
            except ValueError as exc:
                raise CliError(f"row {i}: {exc}", EXIT_CONFIG)
            rs = risk_from_record(record, rng=np.random.default_rng([seed, i]),
                                  deterministic=deterministic)
            out = {c: row[c] for c in CSV_COLUMNS}
            out["r"] = repr(rs.r)
            out["m"] = rs.missing_count
            rows_out.append(out)
    fieldnames = list(CSV_COLUMNS) + ["r", "m"]
    if output_path != "-":
        write_csv(output_path, fieldnames, rows_out)
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows_out)


@main.command("gen-data")
@click.option("--config", "config_path", default=None, help="JSON config file (section 'synthetic')")
@click.option("--out-dir", required=True)
@click.option("--n-subjects", type=int, default=None)
@click.option("--n-downstream", type=int, default=None)
@click.option("--seed", type=int, default=None)
def gen_data_cmd(config_path, out_dir, n_subjects, n_downstream, seed):
    """Generate the synthetic pretraining + downstream datasets."""
    from riskclr.data import SyntheticConfig, export_metadata_csv, generate_synthetic, save

    section = _load_config_file(config_path, "synthetic").get("synthetic", {})
    cfg = _dataclass_from(section, SyntheticConfig,
                          {"n_subjects": n_subjects, "n_downstream": n_downstream, "seed": seed})
    run_dir = Path(out_dir)
    _echo_config(run_dir, {"synthetic": dataclasses.asdict(cfg)})
    pre, down = generate_synthetic(cfg)
    save(pre, run_dir / "pretrain.rds")
    save(down, run_dir / "downstream.rds")
    export_metadata_csv(pre, run_dir / "metadata.csv")
    click.echo(f"wrote {len(pre)} pretraining records and {len(down)} downstream samples to {run_dir}")


def _load_dataset(path: str, kind):
    from riskclr import data as data_mod
    from riskclr.encoder import STEM_KERNEL
    from riskclr.signal import TARGET_FS, resampled_length

    p = Path(path)
    if not p.exists() and not p.is_absolute():
        candidate = Path(data_mod.data_root()) / p
        if candidate.exists():
            p = candidate
    if not p.exists():
        raise CliError(f"dataset not found: {path}", EXIT_MISSING_INPUT)
    try:
        ds = data_mod.load(p)
    except data_mod.DataFormatError as exc:
        raise CliError(str(exc), EXIT_MISSING_INPUT)
    if not isinstance(ds, kind):
        raise CliError(f"{path} holds the wrong dataset kind", EXIT_CONFIG)
    t = (ds.leads if isinstance(ds, data_mod.Dataset) else ds.signals).shape[-1]
    try:
        out_len = resampled_length(t, ds.fs)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_CONFIG)
    if out_len < STEM_KERNEL:
        raise CliError(f"{path}: signals of {t} samples at {ds.fs:g} Hz are shorter than the "
                       f"encoder's {STEM_KERNEL}-sample stem kernel at {TARGET_FS:g} Hz",
                       EXIT_CONFIG)
    return ds


@main.command("pretrain")
@click.option("--config", "config_path", default=None, help="JSON config (section 'pretrain')")
@click.option("--data", "data_path", required=True, help="pretraining dataset container")
@click.option("--run-dir", required=True)
@click.option("--encoder", "encoder_name", default="tiny", show_default=True)
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--resume", "resume_path", default=None, help="checkpoint to resume from")
def pretrain_cmd(config_path, data_path, run_dir, encoder_name, epochs, batch_size, lr, seed, resume_path):
    """Contrastive pretraining; writes best/last checkpoints and metrics.csv."""
    from riskclr.container import DataFormatError
    from riskclr.data import Dataset
    from riskclr.encoder import build
    from riskclr.train import (NanLossError, PreparedPretrain, PretrainConfig, ResumeError,
                               check_resume, host_conditions, pretrain)

    section = _load_config_file(config_path, "pretrain").get("pretrain", {})
    cfg = _dataclass_from(section, PretrainConfig,
                          {"epochs": epochs, "batch_size": batch_size, "lr": lr, "seed": seed})
    enc_cfg = _encoder_config(encoder_name)
    if resume_path is not None and not Path(resume_path).exists():
        raise CliError(f"checkpoint not found: {resume_path}", EXIT_MISSING_INPUT)
    ds = _load_dataset(data_path, Dataset)
    run = Path(run_dir)
    prep = PreparedPretrain.from_dataset(ds, seed=cfg.seed,
                                         deterministic_impute=cfg.deterministic_impute)
    encoder = build(enc_cfg, seed=cfg.seed, dtype=np.dtype(cfg.dtype))
    try:
        if resume_path is not None:  # a refused resume leaves the run's config.json as it was
            check_resume(resume_path, encoder, cfg)
        _echo_config(run, {"pretrain": dataclasses.asdict(cfg),
                           "encoder": dataclasses.asdict(enc_cfg),
                           "dataset_hash": ds.content_hash(), "host": host_conditions()})
        result = pretrain(prep, encoder, cfg, run_dir=run, resume_from=resume_path)
    except NanLossError as exc:
        raise CliError(str(exc), EXIT_NAN)
    except ResumeError as exc:
        raise CliError(f"cannot resume from {resume_path}: {exc}", EXIT_CONFIG)
    except DataFormatError as exc:  # only the resume checkpoint is read here
        raise CliError(f"cannot resume from {resume_path}: {exc}", EXIT_MISSING_INPUT)
    click.echo(f"best epoch {result.best_epoch} val_loss {result.best_val:.6f} "
               f"checkpoint {result.checkpoint_path}")


def _downstream_command(name: str, finetune_mode: bool, doc: str):
    @main.command(name, help=doc)
    @click.option("--config", "config_path", default=None)
    @click.option("--checkpoint", "ckpt_path", required=True)
    @click.option("--data", "data_path", required=True, help="downstream dataset container")
    @click.option("--run-dir", required=True)
    @click.option("--task", default=None, help="binary | regression")
    @click.option("--seed", type=int, default=None)
    def command(config_path, ckpt_path, data_path, run_dir, task, seed):
        _probe_or_finetune(config_path, ckpt_path, data_path, run_dir, task, seed, finetune_mode)

    return command


probe_cmd = _downstream_command("probe", False, "Linear probing on frozen embeddings.")
finetune_cmd = _downstream_command("finetune", True,
                                   "Joint encoder + head training on the downstream task.")


def _split_downstream(ds, raw: dict, config_path: str | None, seed: int):
    """Train, val and test parts of ``ds``, split by subject in the config's
    ``downstream_split`` fractions (0.6/0.2/0.2 without one)."""
    from riskclr.data import split

    fractions = raw.get("downstream_split", (0.6, 0.2, 0.2))
    try:
        return split(ds, fractions, mode="by-subject", seed=seed)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config file {config_path}: bad 'downstream_split' {fractions!r}: {exc}",
                       EXIT_CONFIG)


def _probe_or_finetune(config_path, ckpt_path, data_path, run_dir, task, seed, finetune_mode):
    from riskclr.container import DataFormatError, write_csv
    from riskclr.data import DownstreamDataset
    from riskclr.encoder import load_checkpoint
    from riskclr.metrics import UndefinedMetricError
    from riskclr.train import DownstreamConfig, evaluate_head, finetune, linear_probe

    raw = _load_config_file(config_path, "downstream")
    cfg = _dataclass_from(raw.get("downstream", {}), DownstreamConfig, {"task": task, "seed": seed})
    if not Path(ckpt_path).exists():
        raise CliError(f"checkpoint not found: {ckpt_path}", EXIT_MISSING_INPUT)
    try:
        encoder, _, _ = load_checkpoint(ckpt_path)
    except DataFormatError as exc:
        raise CliError(str(exc), EXIT_MISSING_INPUT)
    ds = _load_dataset(data_path, DownstreamDataset)
    tr, va, te = _split_downstream(ds, raw, config_path, cfg.seed)
    run = Path(run_dir)
    _echo_config(run, {"downstream": dataclasses.asdict(cfg), "checkpoint": str(ckpt_path),
                       "mode": "finetune" if finetune_mode else "probe"})
    fn = finetune if finetune_mode else linear_probe

    def split_error(name, ds, exc):
        # a by-subject split of a small set can leave one class in a part
        return CliError(f"{name} split of {data_path} (n={len(ds)}): {exc}", EXIT_CONFIG)

    try:
        head, val_metrics = fn(encoder, tr, va, cfg)
    except UndefinedMetricError as exc:
        raise split_error("val", va, exc)
    except ValueError as exc:
        raise split_error("train", tr, exc)
    try:
        test_metrics = evaluate_head(encoder, head, te)
    except UndefinedMetricError as exc:
        raise split_error("test", te, exc)
    rows = [{"split": "val", **val_metrics}, {"split": "test", **test_metrics}]
    write_csv(run / "metrics.csv", sorted({k for r in rows for k in r}), rows)
    click.echo(json.dumps({"val": val_metrics, "test": test_metrics}, default=float))


@main.command("ablate")
@click.option("--config", "config_path", default=None)
@click.option("--pretrain-data", "pre_path", required=True)
@click.option("--downstream-data", "down_path", required=True)
@click.option("--run-dir", required=True)
@click.option("--encoder", "encoder_name", default="tiny", show_default=True)
@click.option("--epochs", type=int, default=None)
@click.option("--lambda-mixes", "lam_mixes", is_flag=True,
              help="also run the normalized w+d mixtures (5,2,1,0.5,0.2)")
def ablate_cmd(config_path, pre_path, down_path, run_dir, encoder_name, epochs, lam_mixes):
    """Pretrain+probe each loss variant under identical seeds; emit a table."""
    from riskclr.container import write_csv
    from riskclr.data import Dataset, DownstreamDataset
    from riskclr.train import (ABLATION_VARIANTS, LAMBDA_MIX_VARIANTS, DownstreamConfig,
                               PreparedPretrain, PretrainConfig, ablate)

    raw = _load_config_file(config_path, "pretrain", "downstream")
    cfg = _dataclass_from(raw.get("pretrain", {}), PretrainConfig, {"epochs": epochs})
    probe_cfg = _dataclass_from(raw.get("downstream", {}), DownstreamConfig, {})
    enc_cfg = _encoder_config(encoder_name)
    pre = _load_dataset(pre_path, Dataset)
    down = _load_dataset(down_path, DownstreamDataset)
    tr, va, te = _split_downstream(down, raw, config_path, probe_cfg.seed)
    run = Path(run_dir)
    variants = ABLATION_VARIANTS + (LAMBDA_MIX_VARIANTS if lam_mixes else ())
    _echo_config(run, {"pretrain": dataclasses.asdict(cfg),
                       "downstream": dataclasses.asdict(probe_cfg),
                       "encoder": dataclasses.asdict(enc_cfg),
                       "variants": [v.label() for v in variants]})
    prep = PreparedPretrain.from_dataset(pre, seed=cfg.seed,
                                         deterministic_impute=cfg.deterministic_impute)
    rows = ablate(prep, enc_cfg, tr, va, te, cfg, probe_cfg, variants=variants,
                  encoder_seed=cfg.seed)
    write_csv(run / "ablation.csv", list(rows[0]), rows)
    for row in rows:
        click.echo(json.dumps(row, default=float))


@main.command("gradcheck")
@click.option("--tolerance", default=1e-4, show_default=True)
@click.option("--dump-weights", "dump_w", default=None,
              help="also dump a random batch's weight matrix to this CSV")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--with-encoder/--losses-only", default=False, show_default=True,
              help="include the end-to-end encoder+loss check (slower)")
def gradcheck_cmd(tolerance, dump_w, seed, with_encoder):
    """Finite-difference gradient checks; exits nonzero above tolerance."""
    import io

    from riskclr.container import write_atomic
    from riskclr.validation import encoder_gradcheck, loss_gradchecks, random_weight_batch

    worst = loss_gradchecks(seed=seed)
    for name, err in worst.items():
        click.echo(f"{name}: max rel err {err:.3e}")
    if with_encoder:
        err = encoder_gradcheck(seed=seed)
        worst["encoder+total"] = err
        click.echo(f"encoder+total: max rel err {err:.3e}")
    if dump_w:
        W = random_weight_batch(seed=seed)
        text = io.StringIO()
        np.savetxt(text, W, delimiter=",")
        write_atomic(dump_w, text.getvalue().encode("utf-8"))
        click.echo(f"wrote weight matrix {W.shape} to {dump_w}")
    if max(worst.values()) > tolerance:
        raise CliError(f"gradient check failed tolerance {tolerance}", 1)


_EVAL_COLUMNS = {"binary": ("score", "label"), "regression": ("pred", "truth")}


def _csv_number(path: str, line: int, row: dict, column: str) -> float:
    """``row[column]`` as a finite number; a label must read 0 or 1, so ``1.0``
    passes, as in score2's binary columns."""
    try:
        value = float(row[column])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value) or (column == "label" and value not in (0.0, 1.0)):
        wanted = "0 or 1" if column == "label" else "a finite number"
        raise CliError(f"{path} line {line}, column {column!r}: {row[column]!r} is not {wanted}",
                       EXIT_CONFIG)
    return value


@main.command("eval")
@click.option("--pred", "pred_path", required=True,
              help="CSV with columns score,label (binary) or pred,truth (regression)")
@click.option("--task", default="binary", show_default=True)
def eval_cmd(pred_path, task):
    """Compute metrics from a predictions CSV."""
    from riskclr.metrics import auroc_binary, mae

    p = Path(pred_path)
    if not p.exists():
        raise CliError(f"predictions not found: {pred_path}", EXIT_MISSING_INPUT)
    if task not in _EVAL_COLUMNS:
        raise CliError(f"unknown task {task!r}", EXIT_CONFIG)
    columns = _EVAL_COLUMNS[task]
    with open(p, newline="") as fh:
        reader = _csv_reader(fh, pred_path, columns)
        rows = [[_csv_number(pred_path, reader.line_num, row, c) for c in columns]
                for row in reader]
    if not rows:
        raise CliError(f"{pred_path} has no prediction rows", EXIT_CONFIG)
    first, second = np.array(rows).T
    if task == "regression":
        click.echo(json.dumps({"task": task, "metric": "mae",
                               "value": mae(first, second), "n": len(rows)}))
        return
    for label in (0, 1):
        if label not in second:
            raise CliError(f"{pred_path} has no row with label {label}; AUROC needs both "
                           "classes", EXIT_CONFIG)
    click.echo(json.dumps({"task": task, "metric": "auroc",
                           "value": auroc_binary(first, second.astype(int)), "n": len(rows)}))


@main.command("inspect")
@click.option("--encoder", "encoder_name", default=None, help="standard config name")
@click.option("--checkpoint", "ckpt_path", default=None)
def inspect_cmd(encoder_name, ckpt_path):
    """Dump parameter counts per module for a config or checkpoint."""
    from riskclr.encoder import load_checkpoint, param_count, parameter_breakdown

    if (encoder_name is None) == (ckpt_path is None):
        raise CliError("pass exactly one of --encoder / --checkpoint", EXIT_CONFIG)
    if ckpt_path is not None:
        if not Path(ckpt_path).exists():
            raise CliError(f"checkpoint not found: {ckpt_path}", EXIT_MISSING_INPUT)
        encoder, _, meta = load_checkpoint(ckpt_path)
        cfg = encoder.config
        click.echo(f"checkpoint meta: {json.dumps(meta, default=str)}")
    else:
        cfg = _encoder_config(encoder_name)
    for module, count in parameter_breakdown(cfg).items():
        click.echo(f"{module}: {count}")
    click.echo(f"total: {param_count(cfg)}")


if __name__ == "__main__":
    main()
