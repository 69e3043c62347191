"""Synthetic generator properties, container round-trips, split laws."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from riskclr import container
from riskclr.data import (
    DataFormatError,
    Dataset,
    DownstreamDataset,
    SyntheticConfig,
    generate_synthetic,
    load,
    load_bytes,
    save,
    save_bytes,
    split,
)
from riskclr.risk_score import risk_from_record
from riskclr.signal import preprocess


@pytest.fixture(scope="module")
def small_pair():
    cfg = SyntheticConfig(n_subjects=24, n_downstream=16, duration=4.0, seed=7)
    return generate_synthetic(cfg)


class TestGenerator:
    def test_seed_reproducibility(self, small_pair):
        cfg = SyntheticConfig(n_subjects=24, n_downstream=16, duration=4.0, seed=7)
        pre2, down2 = generate_synthetic(cfg)
        assert save_bytes(small_pair[0]) == save_bytes(pre2)
        assert save_bytes(small_pair[1]) == save_bytes(down2)

    def test_shapes_and_kinds(self, small_pair):
        pre, down = small_pair
        assert len(pre) == 24 and len(down) == 16
        assert pre.leads.shape == (24, 12, 1000) and pre.leads.dtype == np.float32
        assert down.signals.shape == (16, 1000) and down.signals.dtype == np.float32
        assert pre.fs == down.fs == 250.0
        assert np.all(down.lead_id == 1)

    def test_risk_heart_rate_correlation(self):
        # default coupling must tie risk to heart rate clearly
        cfg = SyntheticConfig(n_subjects=256, n_downstream=0, duration=6.0, seed=3)
        pre, _ = generate_synthetic(cfg)
        from riskclr.data import _generate_subject

        risks, rates = [], []
        for i in range(256):
            _, _, r, hr = _generate_subject(cfg, i)
            risks.append(r)
            rates.append(hr)
        rho = np.corrcoef(risks, rates)[0, 1]
        assert abs(rho) >= 0.5

    def test_zero_coupling_decouples(self):
        cfg = SyntheticConfig(n_subjects=64, n_downstream=0, duration=4.0, seed=5,
                              hr_coupling=0.0, t_amp_coupling=0.0, noise_coupling=0.0)
        from riskclr.data import _generate_subject

        risks, rates = [], []
        for i in range(64):
            _, _, r, hr = _generate_subject(cfg, i)
            risks.append(r)
            rates.append(hr)
        assert abs(np.corrcoef(risks, rates)[0, 1]) < 0.3

    def test_binary_labels_balanced(self, small_pair):
        _, down = small_pair
        y = down.labels("binary")
        assert 0 < y.sum() < len(y)

    def test_metadata_always_has_core_triple(self, small_pair):
        pre, _ = small_pair
        for meta in pre.metadata:
            assert meta.age is not None
            assert meta.gender is not None
            assert meta.sbp is not None

    def test_generated_ecg_passes_preprocessing(self, small_pair):
        pre, _ = small_pair
        for leads in pre.leads[:4]:
            out = preprocess(leads.astype(np.float64), pre.fs)
            np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-6)  # no constant lead

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(hr_coupling=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("fs", math.nan), ("fs", math.inf), ("duration", math.nan), ("duration", math.inf),
        ("n_subjects", -1), ("n_subjects", 2.5), ("n_downstream", -1), ("n_downstream", 4.0),
        ("seed", -3), ("seed", 1.5), ("optional_presence", 1.5), ("optional_presence", -0.1),
        ("binary_quantile", 2.0), ("binary_quantile", math.nan), ("qt_coupling", math.nan),
    ])
    def test_synthetic_config_names_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SyntheticConfig(**{field: value})

    def test_synthetic_config_edges_accepted(self):
        SyntheticConfig(n_downstream=0, seed=0, optional_presence=0.0, binary_quantile=1.0,
                        hr_coupling=0.0)

    @pytest.mark.parametrize("duration,fs", [(0.001, 250.0), (0.5, 1.5), (1e-9, 500.0)])
    def test_synthetic_config_refuses_under_one_sample(self, duration, fs):
        with pytest.raises(ValueError, match="duration \\* fs must give at least one sample"):
            SyntheticConfig(duration=duration, fs=fs)

    def test_synthetic_config_one_sample_accepted(self):
        SyntheticConfig(duration=0.004, fs=250.0)


class TestContainer:
    def test_pretrain_roundtrip(self, small_pair, tmp_path):
        pre, _ = small_pair
        path = tmp_path / "pre.rds"
        save(pre, path)
        back = load(path)
        assert isinstance(back, Dataset)
        assert len(back) == len(pre)
        assert (back.fs, back.subject_ids, back.metadata) == (pre.fs, pre.subject_ids, pre.metadata)
        np.testing.assert_array_equal(back.leads, pre.leads)

    def test_downstream_roundtrip(self, small_pair, tmp_path):
        _, down = small_pair
        path = tmp_path / "down.rds"
        save(down, path)
        back = load(path)
        assert isinstance(back, DownstreamDataset)
        assert (back.fs, back.subject_ids) == (down.fs, down.subject_ids)
        for name in ("signals", "lead_id", "label_real", "label_binary"):
            want, got = getattr(down, name), getattr(back, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_risk_recompute_after_roundtrip(self, small_pair, tmp_path):
        pre, _ = small_pair
        before = [risk_from_record(m, deterministic=True) for m in pre.metadata]
        path = tmp_path / "pre.rds"
        save(pre, path)
        back = load(path)
        after = [risk_from_record(m, deterministic=True) for m in back.metadata]
        for x, y in zip(before, after):
            assert x.r == y.r and x.missing_count == y.missing_count

    def test_corrupted_checksum_rejected(self, small_pair, tmp_path):
        pre, _ = small_pair
        blob = bytearray(save_bytes(pre))
        blob[len(blob) // 2] ^= 0xFF
        path = tmp_path / "bad.rds"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load(path)

    def test_truncation_rejected(self, small_pair, tmp_path):
        pre, _ = small_pair
        blob = save_bytes(pre)[:40]
        path = tmp_path / "trunc.rds"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError):
            load(path)

    def test_version_mismatch_rejected(self, small_pair, tmp_path):
        pre, _ = small_pair
        path = tmp_path / "vers.rds"
        path.write_bytes(with_header(save_bytes(pre), lambda h: {**h, "version": h["version"] + 1}))
        with pytest.raises(DataFormatError, match="version"):
            load(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda h: [h], "not a JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "arrays"}, "'arrays' list"),
        (lambda h: {k: v for k, v in h.items() if k != "fields"}, "'fields' object"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "bogus"}]}, "not understood"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "|O"}]}, "malformed array"),
        (lambda h: {**h, "arrays": ["leads"]}, "malformed array"),
        (lambda h: {**h, "arrays": [{"name": "leads", "dtype": "<f4"}]}, "'shape'"),
    ], ids=["header-list", "no-arrays", "no-fields", "unknown-dtype", "object-dtype",
            "entry-string", "entry-no-shape"])
    def test_malformed_header_rejected(self, small_pair, edit, message):
        """A header that passes the checksum but is not the format's shape
        fails as DataFormatError, not as whatever the reader tripped on."""
        pre, _ = small_pair
        with pytest.raises(DataFormatError, match=message):
            load_bytes(with_header(save_bytes(pre), edit))

    def test_write_removes_a_dead_writers_temp_file(self, tmp_path):
        """A writer killed before its rename leaves ``<target>.<pid>.tmp``;
        the next write of that target removes it, and leaves the temp files
        of a live writer and of other targets alone."""
        done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        dead = int(done.stdout)
        stale = tmp_path / f"out.csv.{dead}.tmp"
        live = tmp_path / f"out.csv.{os.getppid()}.tmp"
        other = tmp_path / f"other.csv.{dead}.tmp"
        for path in (stale, live, other):
            path.write_bytes(b"partial")
        container.write_atomic(tmp_path / "out.csv", b"whole")
        assert (tmp_path / "out.csv").read_bytes() == b"whole"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.csv", live.name, other.name])

    def test_checkpoint_is_not_a_dataset(self, tmp_path):
        from riskclr.encoder import STANDARD_CONFIGS, build, save_checkpoint

        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, build(STANDARD_CONFIGS["tiny"], seed=0))
        with pytest.raises(DataFormatError, match="checkpoint"):
            load(path)

    def test_retired_framing_rejected(self, tmp_path):
        path = tmp_path / "old.rds"
        path.write_bytes(b"RCLRDATA" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="retired"):
            load(path)

    def test_empty_dataset_roundtrip(self, tmp_path):
        path = tmp_path / "empty.rds"
        save(_dummy_dataset(0), path)
        back = load(path)
        assert len(back) == 0 and back.leads.shape == (0, 12, 8) and back.fs == 250.0

    def test_metadata_csv_sidecar(self, small_pair, tmp_path):
        import csv

        from riskclr.data import export_metadata_csv
        from riskclr.risk_score import record_from_csv_row

        pre, _ = small_pair
        path = tmp_path / "meta.csv"
        export_metadata_csv(pre, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == len(pre)
        for sid, meta, row in zip(pre.subject_ids, pre.metadata, rows):
            assert row["subject_id"] == sid
            assert record_from_csv_row(row) == meta


class TestColumns:
    def test_mismatched_pretrain_columns_rejected(self):
        ds = _dummy_dataset(4)
        with pytest.raises(ValueError, match="column 'metadata' needs 4 rows"):
            Dataset(ds.leads, ds.fs, ds.subject_ids, ds.metadata[:3])
        with pytest.raises(ValueError, match="column 'subject_ids' needs 4 rows"):
            Dataset(ds.leads, ds.fs, ds.subject_ids + ["extra"], ds.metadata)

    def test_mismatched_downstream_columns_rejected(self, small_pair):
        _, down = small_pair
        cols = dict(signals=down.signals, fs=down.fs, subject_ids=down.subject_ids,
                    lead_id=down.lead_id, label_real=down.label_real,
                    label_binary=down.label_binary)
        with pytest.raises(ValueError, match="column 'label_real' needs 16 rows"):
            DownstreamDataset(**{**cols, "label_real": down.label_real[:-1]})
        with pytest.raises(ValueError, match="column 'lead_id' needs 16 rows"):
            DownstreamDataset(**{**cols, "lead_id": np.ones((16, 2))})

    @pytest.mark.parametrize("shape", [(4, 8), (4, 12, 8, 1), (4, 11, 8)])
    def test_leads_layout_rejected(self, shape):
        ds = _dummy_dataset(4)
        with pytest.raises(ValueError, match=r"leads must be \(n, 12, t\)"):
            Dataset(np.zeros(shape, dtype=np.float32), ds.fs, ds.subject_ids, ds.metadata)

    def test_downstream_signals_must_be_2d(self):
        with pytest.raises(ValueError, match=r"signals must be \(n, t\)"):
            DownstreamDataset(np.zeros(8), 250.0, ["a"], [1], [0.1], [0])

    def test_zero_length_signals_rejected(self):
        ds = _dummy_dataset(2)
        with pytest.raises(ValueError, match=r"leads must be \(n, 12, t\) with t >= 1"):
            Dataset(np.zeros((2, 12, 0), dtype=np.float32), ds.fs, ds.subject_ids, ds.metadata)
        with pytest.raises(ValueError, match=r"signals must be \(n, t\) with t >= 1"):
            DownstreamDataset(np.zeros((1, 0)), 250.0, ["a"], [1], [0.1], [0])

    @pytest.mark.parametrize("fs", [0.0, -250.0, float("nan"), float("inf")])
    def test_bad_sample_rate_rejected(self, fs):
        ds = _dummy_dataset(2)
        with pytest.raises(ValueError, match="fs must be a positive sample rate"):
            Dataset(ds.leads, fs, ds.subject_ids, ds.metadata)
        with pytest.raises(ValueError, match="fs must be a positive sample rate"):
            DownstreamDataset(np.zeros((1, 8)), fs, ["a"], [1], [0.1], [0])

    def test_take_selects_rows_in_order(self, small_pair):
        _, down = small_pair
        part = down.take([3, 0])
        assert part.fs == down.fs
        assert part.subject_ids == [down.subject_ids[3], down.subject_ids[0]]
        np.testing.assert_array_equal(part.signals, down.signals[[3, 0]])
        np.testing.assert_array_equal(part.label_real, down.label_real[[3, 0]])
        assert len(down.take([])) == 0

    def test_split_keeps_columns_aligned(self, small_pair):
        pre, down = small_pair
        for ds in (pre, down):
            row = {sid: i for i, sid in enumerate(ds.subject_ids)}
            for part in split(ds, (0.5, 0.25, 0.25), mode="by-subject", seed=2):
                idx = [row[sid] for sid in part.subject_ids]
                assert save_bytes(part) == save_bytes(ds.take(idx))

    def test_malformed_container_rejected(self):
        ds = _dummy_dataset(3)
        blob = container.pack("pretrain", {"fs": 250.0, "subject_ids": ds.subject_ids,
                                           "metadata": []}, {"leads": ds.leads})
        with pytest.raises(DataFormatError, match="column 'metadata' needs 3 rows"):
            load_bytes(blob)


class TestSplit:
    def test_sizes_80_10_10(self):
        ds = _dummy_dataset(100)
        tr, va, te = split(ds, (0.8, 0.1, 0.1), mode="sequential")
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_sequential_preserves_order(self):
        ds = _dummy_dataset(30)
        tr, va, te = split(ds, (0.5, 0.25, 0.25), mode="sequential")
        ids = tr.subject_ids + va.subject_ids + te.subject_ids
        assert ids == [f"s{i}" for i in range(30)]

    def test_by_subject_disjoint(self):
        # two records per subject; partitions never split a subject
        ds = _dummy_dataset(40, subjects=[f"s{i // 2}" for i in range(40)])
        tr, va, te = split(ds, (0.6, 0.2, 0.2), mode="by-subject", seed=9)
        groups = [set(part.subject_ids) for part in (tr, va, te)]
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
        assert len(tr) + len(va) + len(te) == 40

    def test_split_reproducible(self):
        ds = _dummy_dataset(50)
        a = split(ds, (0.8, 0.1, 0.1), mode="by-subject", seed=4)
        b = split(ds, (0.8, 0.1, 0.1), mode="by-subject", seed=4)
        for pa, pb in zip(a, b):
            assert pa.subject_ids == pb.subject_ids

    def test_fraction_misuse_rejected(self):
        ds = _dummy_dataset(10)
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.1, 0.2))
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.2, 0.0), mode="bogus")

    def test_downstream_split(self, ):
        cfg = SyntheticConfig(n_subjects=4, n_downstream=20, duration=2.0, seed=1)
        _, down = generate_synthetic(cfg)
        tr, va, te = split(down, (0.5, 0.25, 0.25), mode="by-subject", seed=0)
        assert len(tr) + len(va) + len(te) == 20


def with_header(blob: bytes, edit) -> bytes:
    """The container ``blob`` with its JSON header replaced by
    ``edit(header)`` and its checksum recomputed."""
    import hashlib
    import json

    body = blob[:-32]
    start = len(container.MAGIC) + 4
    end = start + int.from_bytes(body[len(container.MAGIC) : start], "little")
    raw = json.dumps(edit(json.loads(body[start:end])), sort_keys=True).encode()
    body = container.MAGIC + len(raw).to_bytes(4, "little") + raw + body[end:]
    return body + hashlib.sha256(body).digest()


def _dummy_dataset(n, subjects=None):
    """``n`` rows of zero leads at 250 Hz; row i belongs to ``subjects[i]`` (default ``s{i}``)."""
    from riskclr.risk_score import MetadataRecord

    return Dataset(
        leads=np.zeros((n, 12, 8), dtype=np.float32),
        fs=250.0,
        subject_ids=subjects if subjects is not None else [f"s{i}" for i in range(n)],
        metadata=[MetadataRecord(age=50 + (i % 10), gender="male", sbp=120.0) for i in range(n)],
    )
