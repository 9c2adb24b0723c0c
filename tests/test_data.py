import json
import math
import struct

import numpy as np
import pytest

from dataclasses import fields, replace

from dualface import data as dd
from dualface.losses import CCRLConfig, LossWeights
from dualface.model import ModelConfig
from dualface.train import TrainConfig


def _motion(rng, t=6, v=8):
    return dd.MotionSequence(rng.standard_normal((t, v, 3)) * 0.2, 25.0)


def test_motion_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = _motion(rng)
    path = tmp_path / "m.bin"
    dd.save_motion(path, m)
    back = dd.load_motion(path)
    # payload is float32 on disk; the round trip is exact at f32 resolution
    assert back.frames == m.frames and back.vertex_count == m.vertex_count
    assert back.fps == m.fps
    assert np.array_equal(back.displacements, m.displacements.astype(np.float32).astype(np.float64))
    dd.save_motion(path, back)
    assert np.array_equal(dd.load_motion(path).displacements, back.displacements)


def test_template_and_features_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tpl = dd.NeutralTemplate(rng.standard_normal((10, 3)))
    dd.save_template(tmp_path / "t.bin", tpl)
    back = dd.load_template(tmp_path / "t.bin")
    assert np.array_equal(back.positions, tpl.positions.astype(np.float32).astype(np.float64))

    feats = dd.FeatureSequence(rng.standard_normal((7, 5)))
    dd.save_features(tmp_path / "f.bin", feats)
    fback = dd.load_features(tmp_path / "f.bin")
    assert fback.frames == 7 and fback.dim == 5
    assert np.array_equal(fback.values, feats.values.astype(np.float32).astype(np.float64))


def test_f32_formats_match_their_documented_layout(tmp_path):
    """Each DTMO, DTPL and DTFT file is byte for byte the layout its save_*
    docstring states: magic, u32 version, the header fields, then the
    values as little-endian f32."""
    rng = np.random.default_rng(11)
    disp, pos, vals = rng.standard_normal((2, 4, 3)), rng.standard_normal((4, 3)), rng.standard_normal((3, 2))
    cases = [
        (dd.save_motion, dd.MotionSequence(disp, 29.97), struct.pack("<4sIIIf", b"DTMO", 1, 2, 4, 29.97), disp),
        (dd.save_template, dd.NeutralTemplate(pos), struct.pack("<4sII", b"DTPL", 1, 4), pos),
        (dd.save_features, dd.FeatureSequence(vals), struct.pack("<4sIII", b"DTFT", 1, 3, 2), vals),
    ]
    for save, obj, header, values in cases:
        path = tmp_path / f"{save.__name__}.bin"
        save(path, obj)
        assert path.read_bytes() == header + values.astype("<f4").tobytes(), save.__name__


@pytest.mark.parametrize("save, bad, match", [
    (dd.save_motion, dd.MotionSequence(np.full((2, 4, 3), 1e300), 25.0), "displacements"),
    (dd.save_motion, dd.MotionSequence(np.zeros((2, 4, 3)), 1e308), "fps"),
    (dd.save_motion, dd.MotionSequence(np.zeros((2, 4, 3)), 1e-50), "fps"),
    (dd.save_template, dd.NeutralTemplate(np.full((4, 3), -1e39)), "template positions"),
    (dd.save_features, dd.FeatureSequence([[1.0, 1e300]]), "feature values"),
])
def test_save_refuses_values_float32_cannot_hold(tmp_path, save, bad, match):
    """Finite float64 values that float32 storage makes inf (or an fps it
    makes 0) are refused before the file is opened."""
    path = tmp_path / "old.bin"
    path.write_bytes(b"earlier file")
    with pytest.raises(ValueError, match=match):
        save(path, bad)
    assert path.read_bytes() == b"earlier file"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.bin"
    dd.save_motion(path, _motion(np.random.default_rng(2)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(dd.BadMagicError):
        dd.load_motion(path)
    # a template magic on a motion loader is also a magic error
    dd.save_template(tmp_path / "t.bin", dd.NeutralTemplate(np.zeros((4, 3))))
    with pytest.raises(dd.BadMagicError):
        dd.load_motion(tmp_path / "t.bin")


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "m.bin"
    dd.save_motion(path, _motion(np.random.default_rng(3)))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(dd.VersionMismatchError):
        dd.load_motion(path)


def test_truncation_and_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.bin"
    dd.save_motion(path, _motion(np.random.default_rng(4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(dd.TruncatedFileError):
        dd.load_motion(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(dd.FileFormatError):
        dd.load_motion(path)


def test_container_validation():
    with pytest.raises(ValueError):
        dd.MotionSequence(np.zeros((3, 4)), 25.0)  # not (T, V, 3)
    with pytest.raises(ValueError):
        dd.MotionSequence(np.zeros((3, 4, 3)), 0.0)  # bad fps
    with pytest.raises(ValueError):
        dd.NeutralTemplate(np.zeros((2, 3)))  # too few vertices
    with pytest.raises(ValueError):
        dd.FeatureSequence(np.zeros(5))  # rank 1


def test_manifest_roundtrip_and_validation(tmp_path):
    man = dd.DatasetManifest(
        template="template.bin",
        speakers=2,
        entries=[
            dd.ManifestEntry(0, "a_f.bin", "a_m.bin", "train"),
            dd.ManifestEntry(1, "b_f.bin", "b_m.bin", "val"),
        ],
        lip_indices=[0, 1],
        upper_indices=[2, 3],
    )
    path = tmp_path / "manifest.json"
    dd.save_manifest(path, man)
    back = dd.load_manifest(path)
    assert back == man

    blob = json.loads(path.read_text())
    blob["surprise"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(dd.FileFormatError):
        dd.load_manifest(path)

    bad = dd.DatasetManifest("t.bin", 2, [dd.ManifestEntry(5, "f", "m", "train")], [0], [1])
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = dd.DatasetManifest("t.bin", 1, [dd.ManifestEntry(0, "f", "m", "train")], [0, 1], [1, 2])
    with pytest.raises(ValueError):
        bad2.validate()


_ENTRY = {"speaker": 0, "features": "f.bin", "motion": "m.bin", "split": "train"}
_MANIFEST = {"template": "t.bin", "speakers": 2, "entries": [_ENTRY], "lip_indices": [0, 1], "upper_indices": [2, 3]}


@pytest.mark.parametrize("blob", [
    3,
    [],
    {**_MANIFEST, "entries": [3]},
    {**_MANIFEST, "entries": {"speaker": 0}},
    {**_MANIFEST, "entries": [{**_ENTRY, "extra": 1}]},
    {**_MANIFEST, "entries": [{**_ENTRY, "features": 5}]},
    {**_MANIFEST, "template": ["t.bin"]},
    {**_MANIFEST, "entries": [{**_ENTRY, "speaker": "0"}]},
    {**_MANIFEST, "entries": [{**_ENTRY, "speaker": 0.0}]},
    {**_MANIFEST, "entries": [{**_ENTRY, "speaker": True}]},
    {**_MANIFEST, "speakers": 2.0},
    {**_MANIFEST, "lip_indices": [0.5]},
    {**_MANIFEST, "upper_indices": ["2"]},
    {**_MANIFEST, "lip_indices": 3},
    b"{broken",
    b"\xff\xfe",
])
def test_malformed_manifest_rejected(tmp_path, blob):
    path = tmp_path / "manifest.json"
    path.write_bytes(blob if isinstance(blob, bytes) else json.dumps(blob).encode())
    with pytest.raises(dd.FileFormatError):
        dd.load_manifest(path)
    path.write_text(json.dumps(_MANIFEST))
    assert dd.load_manifest(path).entries == [dd.ManifestEntry(**_ENTRY)]


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        dd.SyntheticSpec(vertex_count=8).validate()
    with pytest.raises(ValueError):
        dd.SyntheticSpec(smooth_window=4).validate()
    with pytest.raises(ValueError):
        dd.SyntheticSpec(n_sequences=0).validate()
    with pytest.raises(TypeError):
        dd.SyntheticSpec(frames=2.5).validate()
    with pytest.raises(TypeError):
        dd.SyntheticSpec(seed=True).validate()
    dd.SyntheticSpec().validate()


CONFIGS = [ModelConfig, dd.SyntheticSpec, TrainConfig, LossWeights, CCRLConfig, dd.DatasetManifest, dd.ManifestEntry]


def test_every_config_field_has_a_checked_kind():
    """Each annotation is a kind check_field_types knows (under X | None or
    list[X]) or a nested config; an unknown name, such as a misspelled
    alias, would be taken for a nested config instead of a range."""
    nested = {cls.__name__ for cls in CONFIGS}
    for cls in CONFIGS:
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")
            kind = kind[len("list["):-1] if kind.startswith("list[") else kind
            assert kind in dd._KINDS or kind in nested, f"{cls.__name__}.{f.name}: {f.type}"
    with pytest.raises(TypeError):
        TrainConfig(weights={"primal": 1.0}).validate()


@pytest.mark.parametrize("cls", [dd.SyntheticSpec, TrainConfig, LossWeights, CCRLConfig])
def test_float_fields_reject_non_finite(cls):
    floats = [f.name for f in fields(cls) if dd._KINDS.get(f.type.removesuffix(" | None"), [()])[0] is dd._FLOAT]
    assert floats
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                replace(cls(), **{name: bad}).validate()


def test_generate_synthetic_deterministic(tmp_path):
    spec = dd.SyntheticSpec(n_speakers=2, n_sequences=6, frames=10, vertex_count=24, bands=6)
    a, b = tmp_path / "a", tmp_path / "b"
    dd.generate_synthetic(spec, a)
    dd.generate_synthetic(spec, b)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    dd.generate_synthetic(dd.SyntheticSpec(n_speakers=2, n_sequences=6, frames=10, vertex_count=24, bands=6, seed=9), b)
    assert (a / "seq000_motion.bin").read_bytes() != (b / "seq000_motion.bin").read_bytes()


def test_generate_synthetic_structure(tmp_path):
    spec = dd.SyntheticSpec(n_speakers=3, n_sequences=10, frames=8, vertex_count=24, bands=6)
    man = dd.generate_synthetic(spec, tmp_path)
    assert man.speakers == 3
    assert [e.speaker for e in man.entries] == [i % 3 for i in range(10)]
    splits = [e.split for e in man.entries]
    assert splits.count("train") == 8 and splits.count("val") == 1 and splits.count("test") == 1
    assert splits[:8] == ["train"] * 8  # contiguous split blocks
    lips, upper = dd.default_region_sets(24)
    assert man.lip_indices == lips and man.upper_indices == upper
    assert set(man.lip_indices).isdisjoint(man.upper_indices)
    m = dd.load_motion(tmp_path / man.entries[0].motion)
    f = dd.load_features(tmp_path / man.entries[0].features)
    assert m.frames == 8 and m.vertex_count == 24 and m.fps == 25.0
    assert f.frames == 8 and f.dim == 6
    assert np.all(f.values >= 0.0)  # softplus features with non-negative noise floor


def test_synthetic_lip_motion_amplified(tmp_path):
    spec = dd.SyntheticSpec(n_speakers=2, n_sequences=8, frames=40, vertex_count=36, bands=6, seed=11)
    man = dd.generate_synthetic(spec, tmp_path)
    lips = np.array(man.lip_indices)
    others = np.array([v for v in range(36) if v not in set(man.lip_indices)])
    ratios = []
    for e in man.entries:
        m = dd.load_motion(tmp_path / e.motion)
        mag = np.linalg.norm(m.displacements, axis=2)
        ratios.append(mag[:, lips].std() / mag[:, others].std())
    # lip columns carry a 3x amplified basis; plenty of margin for noise
    assert np.mean(ratios) > 1.5, np.mean(ratios)


def test_resample_features():
    rng = np.random.default_rng(6)
    feats = dd.FeatureSequence(rng.standard_normal((9, 3)))
    up = dd.resample_features(feats, 17)
    assert up.frames == 17
    assert np.array_equal(up.values[0], feats.values[0])
    assert np.array_equal(up.values[-1], feats.values[-1])
    const = dd.FeatureSequence(np.full((5, 2), 3.25))
    assert np.array_equal(dd.resample_features(const, 11).values, np.full((11, 2), 3.25))
    with pytest.raises(ValueError):
        dd.resample_features(dd.FeatureSequence(np.zeros((1, 2))), 5)
    with pytest.raises(ValueError):
        dd.resample_features(feats, 1)


def test_export_obj(tmp_path):
    rng = np.random.default_rng(7)
    tpl = dd.NeutralTemplate(rng.standard_normal((5, 3)))
    motion = dd.MotionSequence(rng.standard_normal((3, 5, 3)), 25.0)
    path = tmp_path / "f.obj"
    dd.export_obj(path, tpl, motion, 1)
    lines = path.read_text().strip().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    assert len(vlines) == 5
    x = float(vlines[0].split()[1])
    assert abs(x - (tpl.positions[0, 0] + motion.displacements[1, 0, 0])) < 1e-6
    with pytest.raises(ValueError):
        dd.export_obj(path, tpl, motion, 3)


def test_motion_to_positions():
    tpl = dd.NeutralTemplate(np.ones((4, 3)))
    motion = dd.MotionSequence(np.full((2, 4, 3), 0.5), 25.0)
    pos = dd.motion_to_positions(motion, tpl)
    assert np.array_equal(pos, np.full((2, 4, 3), 1.5))


def test_load_dataset_resamples_feature_frames(tmp_path):
    spec = dd.SyntheticSpec(n_speakers=2, n_sequences=6, frames=10, vertex_count=24, bands=6)
    man = dd.generate_synthetic(spec, tmp_path)
    # stretch one feature file so its frame count disagrees with the motion
    entry = man.entries[0]
    feats = dd.load_features(tmp_path / entry.features)
    dd.save_features(tmp_path / entry.features, dd.resample_features(feats, 23))
    ds = dd.load_dataset(tmp_path / "manifest.json")
    rec = ds.split("train")[0]
    assert rec.features.frames == rec.motion.frames == 10
    assert ds.audio_dim == 6 and ds.max_frames == 10
