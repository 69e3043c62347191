"""Synthetic generator properties, container round-trips, split laws."""

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
    load_noise_bank,
    save,
    save_bytes,
    save_noise_bank,
    split,
)
from riskclr.risk_score import risk_from_record
from riskclr.signal import NoiseBank, preprocess


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
        assert pre.records[0].leads.shape == (12, 1000)
        assert down.samples[0].signal.shape == (1000,)
        assert all(s.lead_id == 1 for s in down.samples)

    def test_risk_heart_rate_correlation(self):
        # default coupling must tie risk to heart rate clearly
        cfg = SyntheticConfig(n_subjects=256, n_downstream=0, duration=6.0, seed=3)
        pre, _ = generate_synthetic(cfg)
        from riskclr.data import _generate_subject

        risks, rates = [], []
        for i in range(256):
            _, r, hr = _generate_subject(cfg, i)
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
            _, r, hr = _generate_subject(cfg, i)
            risks.append(r)
            rates.append(hr)
        assert abs(np.corrcoef(risks, rates)[0, 1]) < 0.3

    def test_binary_labels_balanced(self, small_pair):
        _, down = small_pair
        y = down.labels("binary")
        assert 0 < y.sum() < len(y)

    def test_metadata_always_has_core_triple(self, small_pair):
        pre, _ = small_pair
        for rec in pre.records:
            assert rec.metadata.age is not None
            assert rec.metadata.gender is not None
            assert rec.metadata.sbp is not None

    def test_generated_ecg_passes_preprocessing(self, small_pair):
        pre, _ = small_pair
        for rec in pre.records[:4]:
            _, degenerate = preprocess(rec.leads.astype(np.float64), rec.fs)
            assert not degenerate

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(hr_coupling=-1.0)


class TestContainer:
    def test_pretrain_roundtrip(self, small_pair, tmp_path):
        pre, _ = small_pair
        path = tmp_path / "pre.rds"
        save(pre, path)
        back = load(path)
        assert isinstance(back, Dataset)
        assert len(back) == len(pre)
        for a, b in zip(pre.records, back.records):
            assert a.subject_id == b.subject_id
            assert a.metadata == b.metadata
            np.testing.assert_array_equal(a.leads, b.leads)

    def test_downstream_roundtrip(self, small_pair, tmp_path):
        _, down = small_pair
        path = tmp_path / "down.rds"
        save(down, path)
        back = load(path)
        assert isinstance(back, DownstreamDataset)
        for a, b in zip(down.samples, back.samples):
            assert (a.subject_id, a.lead_id, a.label_binary) == (b.subject_id, b.lead_id, b.label_binary)
            assert a.label_real == b.label_real
            np.testing.assert_array_equal(a.signal, b.signal)

    def test_risk_recompute_after_roundtrip(self, small_pair, tmp_path):
        pre, _ = small_pair
        before = [risk_from_record(r.metadata, deterministic=True) for r in pre.records]
        path = tmp_path / "pre.rds"
        save(pre, path)
        back = load(path)
        after = [risk_from_record(r.metadata, deterministic=True) for r in back.records]
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
        import hashlib
        import json

        pre, _ = small_pair
        body = save_bytes(pre)[:-32]
        start = len(container.MAGIC) + 4
        end = start + int.from_bytes(body[len(container.MAGIC) : start], "little")
        header = json.loads(body[start:end])
        header["version"] += 1  # bump the header's version, then re-hash
        raw = json.dumps(header, sort_keys=True).encode()
        body = container.MAGIC + len(raw).to_bytes(4, "little") + raw + body[end:]
        path = tmp_path / "vers.rds"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataFormatError, match="version"):
            load(path)

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
        save(Dataset(records=[]), path)
        assert len(load(path)) == 0

    def test_metadata_csv_sidecar(self, small_pair, tmp_path):
        import csv

        from riskclr.data import export_metadata_csv
        from riskclr.risk_score import record_from_csv_row

        pre, _ = small_pair
        path = tmp_path / "meta.csv"
        export_metadata_csv(pre, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == len(pre)
        for rec, row in zip(pre.records, rows):
            assert row["subject_id"] == rec.subject_id
            assert record_from_csv_row(row) == rec.metadata

    def test_noise_bank_roundtrip(self, tmp_path):
        bank = NoiseBank.synthetic(seed=1, duration=1.0)
        path = tmp_path / "noise.rda"
        save_noise_bank(path, bank)
        back = load_noise_bank(path)
        assert back.fs == bank.fs
        for cat in bank.recordings:
            np.testing.assert_array_equal(back.recordings[cat], bank.recordings[cat])


class TestSplit:
    def test_sizes_80_10_10(self):
        ds = Dataset(records=[_dummy_record(i) for i in range(100)])
        tr, va, te = split(ds, (0.8, 0.1, 0.1), mode="sequential")
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_sequential_preserves_order(self):
        ds = Dataset(records=[_dummy_record(i) for i in range(30)])
        tr, va, te = split(ds, (0.5, 0.25, 0.25), mode="sequential")
        ids = [r.subject_id for r in tr.records + va.records + te.records]
        assert ids == [f"s{i}" for i in range(30)]

    def test_by_subject_disjoint(self):
        # two records per subject; partitions never split a subject
        records = [_dummy_record(i // 2, suffix=i % 2) for i in range(40)]
        ds = Dataset(records=records)
        tr, va, te = split(ds, (0.6, 0.2, 0.2), mode="by-subject", seed=9)
        groups = [set(r.subject_id for r in part.records) for part in (tr, va, te)]
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
        assert len(tr) + len(va) + len(te) == 40

    def test_split_reproducible(self):
        ds = Dataset(records=[_dummy_record(i) for i in range(50)])
        a = split(ds, (0.8, 0.1, 0.1), mode="by-subject", seed=4)
        b = split(ds, (0.8, 0.1, 0.1), mode="by-subject", seed=4)
        for pa, pb in zip(a, b):
            assert [r.subject_id for r in pa.records] == [r.subject_id for r in pb.records]

    def test_fraction_misuse_rejected(self):
        ds = Dataset(records=[_dummy_record(i) for i in range(10)])
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.1, 0.2))
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.2, 0.0), mode="bogus")

    def test_downstream_split(self, ):
        cfg = SyntheticConfig(n_subjects=4, n_downstream=20, duration=2.0, seed=1)
        _, down = generate_synthetic(cfg)
        tr, va, te = split(down, (0.5, 0.25, 0.25), mode="by-subject", seed=0)
        assert len(tr) + len(va) + len(te) == 20


def _dummy_record(i, suffix=None):
    from riskclr.data import ECGRecord
    from riskclr.risk_score import MetadataRecord

    return ECGRecord(
        subject_id=f"s{i}",
        leads=np.zeros((12, 8), dtype=np.float32),
        fs=250.0,
        metadata=MetadataRecord(age=50 + (i % 10), gender="male", sbp=120.0),
    )
