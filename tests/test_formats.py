"""Hostile-input tests shared by the four binary formats (DTMO, DTPL, DTFT,
DTCK): every loader either returns a valid object or raises FileFormatError,
in memory bounded by the file's own size."""

import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualface import data as dd
from dualface import model as dm


def _tiny_config(**overrides):
    base = dict(d=4, audio_dim=2, vertex_count=2, n_speakers=1, max_frames=2,
                fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=2)
    return dm.ModelConfig(**{**base, **overrides})


def _write_valid(name, path):
    rng = np.random.default_rng(7)
    if name == "DTMO":
        dd.save_motion(path, dd.MotionSequence(rng.standard_normal((3, 4, 3)), 25.0))
        return dd.load_motion
    if name == "DTPL":
        dd.save_template(path, dd.NeutralTemplate(rng.standard_normal((4, 3))))
        return dd.load_template
    if name == "DTFT":
        dd.save_features(path, dd.FeatureSequence(rng.standard_normal((3, 2))))
        return dd.load_features
    dm.save_checkpoint(path, dm.ModelParams(_tiny_config(), rng))
    return dm.load_checkpoint


FORMATS = ("DTMO", "DTPL", "DTFT", "DTCK")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    files = {}
    for name in FORMATS:
        loader = _write_valid(name, root / f"{name}.bin")
        files[name] = (loader, (root / f"{name}.bin").read_bytes(), root / f"{name}.cut")
    return files


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_rejected(valid_files, name):
    loader, raw, path = valid_files[name]
    loader(path.with_suffix(".bin"))  # the uncut file loads
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(dd.FileFormatError):
            loader(path)


@settings(derandomize=True, deadline=None, database=None, max_examples=1200)
@given(name=st.sampled_from(FORMATS), position=st.integers(0, 1 << 20), value=st.integers(0, 255))
def test_single_byte_change_loads_or_raises_file_format_error(valid_files, name, position, value):
    loader, raw, path = valid_files[name]
    changed = bytearray(raw)
    changed[position % len(raw)] = value
    path.write_bytes(bytes(changed))
    try:
        loader(path)
    except dd.FileFormatError:
        pass


def _hostile_header(**config) -> bytes:
    header = {"config": {**asdict(_tiny_config()), **config}, "dtype": "f64"}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("<4sII", dm.CHECKPOINT_MAGIC, dm.CHECKPOINT_VERSION, len(blob)) + blob


def _peak_bytes(load, path) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(dd.FileFormatError):
            load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hostile_checkpoint_rejected_in_bounded_memory(tmp_path):
    """A header alone that declares a huge model, and a rank field of 2^28,
    are both rejected before anything their sizes imply is allocated."""
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(_hostile_header(d=64, ff_dim=32768))
    assert _peak_bytes(dm.load_checkpoint, path) < 1 << 20

    dm.save_checkpoint(path, dm.ModelParams(_tiny_config(), np.random.default_rng(0)))
    raw = bytearray(path.read_bytes())
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    first = 12 + blob_len
    (name_len,) = struct.unpack_from("<I", raw, first)
    struct.pack_into("<I", raw, first + 4 + name_len, 1 << 28)
    path.write_bytes(bytes(raw))
    assert _peak_bytes(dm.load_checkpoint, path) < 1 << 20


@pytest.mark.parametrize("header", [
    b"[1, 2]",
    b'{"config": {}, "dtype": "f64"}',
    b'{"dtype": "f64"}',
    b'{"config": 3, "dtype": "f64"}',
    b"\xff\xfe{",
    pytest.param(b"[" * 100000, id="deep-nesting"),
])
def test_malformed_checkpoint_header_rejected(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(struct.pack("<4sII", dm.CHECKPOINT_MAGIC, dm.CHECKPOINT_VERSION, len(header)) + header)
    with pytest.raises(dd.FileFormatError):
        dm.load_checkpoint(path)


@pytest.mark.parametrize("change", [
    {"bogus": 1},
    {"d": 4.0},
    {"d": 5},
    {"share_transpose_codec": 1},
    {"dtype": "f16"},
    {"dtype": "f32"},
])
def test_checkpoint_header_faults_rejected(tmp_path, change):
    """Unknown or mistyped config keys, a config that fails validate, and an
    unknown dtype are file-format faults, not crashes."""
    path = tmp_path / "bad.ckpt"
    dm.save_checkpoint(path, dm.ModelParams(_tiny_config(), np.random.default_rng(0)))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + blob_len])
    if "dtype" in change:
        header.update(change)
    else:
        header["config"].update(change)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:])
    with pytest.raises(dd.FileFormatError):
        dm.load_checkpoint(path)


def test_f32_checkpoint_rejected(tmp_path):
    """DTCK stores f64 only: a well-formed file of f32 values under
    "dtype": "f32" is a file-format fault, not a model."""
    params = dm.ModelParams(_tiny_config(), np.random.default_rng(0))
    blob = json.dumps({"config": asdict(params.config), "dtype": "f32"}, sort_keys=True).encode("utf-8")
    records = b""
    for name, p in params.named_parameters():
        shape = p.value.data.shape
        records += struct.pack(f"<I{len(name)}sI{len(shape)}I", len(name), name.encode("utf-8"), len(shape), *shape)
        records += p.value.data.astype("<f4").tobytes()
    path = tmp_path / "f32.ckpt"
    path.write_bytes(struct.pack("<4sII", dm.CHECKPOINT_MAGIC, dm.CHECKPOINT_VERSION, len(blob)) + blob + records)
    with pytest.raises(dd.FileFormatError, match="dtype"):
        dm.load_checkpoint(path)
