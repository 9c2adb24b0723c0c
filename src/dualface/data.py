"""Data containers, binary file formats, and the synthetic paired
audio/motion dataset generator.

Motion is stored as per-frame vertex displacements from a shared neutral
template. On-disk formats are little-endian with 4-byte magics; see the
save_* functions for the exact layouts.
"""

from __future__ import annotations

import json
import math
import re
import struct

import numpy as np

from dataclasses import asdict, dataclass, fields
from pathlib import Path

MOTION_MAGIC = b"DTMO"
TEMPLATE_MAGIC = b"DTPL"
FEATURE_MAGIC = b"DTFT"
FORMAT_VERSION = 1

SYNTH_FPS = 25.0
SYNTH_DISPLACEMENT_SCALE = 0.1
SYNTH_LIP_AMPLIFICATION = 3.0

_F4 = np.dtype("<f4")


class FileFormatError(ValueError):
    pass


class BadMagicError(FileFormatError):
    pass


class VersionMismatchError(FileFormatError):
    pass


class TruncatedFileError(FileFormatError):
    pass


# What a file's decoded values can raise when a container, a config or the
# JSON parser rejects them; loaders report these as a FileFormatError.
_DECODE_ERRORS = (TypeError, ValueError, RecursionError)


# The range vocabulary of config fields: each annotation is one of these, bool,
# str, X | None, list[X] or a nested config; check_field_types enforces it.
Count = int  # >= 1
Index = int  # >= 0
Positive = float  # > 0
NonNegative = float  # >= 0
Fraction = float  # in [0, 1)

_INT, _FLOAT = (int, np.integer), (int, float, np.integer, np.floating)
_KINDS = {  # annotation -> accepted types, range test, both in words; a float must also be finite
    "bool": ((bool,), lambda v: True, "a bool"),
    "str": ((str,), lambda v: True, "a string"),
    "Count": (_INT, lambda v: v >= 1, "an int >= 1"),
    "Index": (_INT, lambda v: v >= 0, "an int >= 0"),
    "Positive": (_FLOAT, lambda v: v > 0, "a finite float > 0"),
    "NonNegative": (_FLOAT, lambda v: v >= 0, "a finite float >= 0"),
    "Fraction": (_FLOAT, lambda v: 0 <= v < 1, "a float in [0, 1)"),
}


def _check(value, kind: str, where: str):
    if value is None and kind.endswith(" | None"):
        return
    kind = kind.removesuffix(" | None")
    if kind.startswith("list[") and isinstance(value, list):
        for v in value:
            _check(v, kind[len("list["):-1], where)
    elif kind not in _KINDS:  # a nested config, which validates itself (or a list[X] given a non-list)
        if type(value).__name__ != kind:
            raise TypeError(f"{where} must be a {kind}, got {value!r}")
        value.validate()
    else:
        types, test, words = _KINDS[kind]
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
            raise TypeError(f"{where} must be {words}, got {value!r}")
        if types is _FLOAT:
            try:
                value = float(value)
            except OverflowError:
                raise TypeError(f"{where} must be {words}, got an int too large for a float") from None
        if not (test(value) and (types is not _FLOAT or math.isfinite(value))):
            raise ValueError(f"{where} must be {words}, got {value!r}")


def check_field_types(obj):
    """Raise TypeError unless each field of a config dataclass has the type
    its annotation names (neither a bool nor a float is an int, a bool is no
    float, an int is a float only if it converts to one), and ValueError
    unless it lies in that kind's range and, if a float, is finite."""
    for f in fields(obj):
        _check(getattr(obj, f.name), f.type, f"{type(obj).__name__}.{f.name}")


# ---------------------------------------------------------------------------
# containers

@dataclass
class NeutralTemplate:
    """Resting-face vertex positions, shape (V, 3), millimeters."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"template positions must be (V, 3), got {self.positions.shape}")
        if self.positions.shape[0] < 4:
            raise ValueError("template needs at least 4 vertices")
        if not np.isfinite(self.positions).all():
            raise ValueError("template positions must be finite")

    @property
    def vertex_count(self) -> int:
        return self.positions.shape[0]


@dataclass
class MotionSequence:
    """Per-frame vertex displacements from the template, shape (T, V, 3)."""

    displacements: np.ndarray
    fps: float

    def __post_init__(self):
        self.displacements = np.ascontiguousarray(np.asarray(self.displacements, dtype=np.float64))
        if self.displacements.ndim != 3 or self.displacements.shape[2] != 3:
            raise ValueError(f"displacements must be (T, V, 3), got {self.displacements.shape}")
        if self.displacements.shape[0] < 1:
            raise ValueError("motion needs at least one frame")
        if not np.isfinite(self.displacements).all():
            raise ValueError("displacements must be finite")
        self.fps = float(self.fps)
        if not (self.fps > 0 and np.isfinite(self.fps)):
            raise ValueError("fps must be positive and finite")

    @property
    def frames(self) -> int:
        return self.displacements.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.displacements.shape[1]


@dataclass
class FeatureSequence:
    """Frame-aligned feature rows, shape (frames, dim)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError(f"feature values must be (frames, dim), got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class SyntheticSpec:
    """Knobs for the synthetic paired dataset.

    A smoothed latent path drives both the spectral-band features and the
    vertex displacements of each sequence, so the two modalities share a
    common cause the models can recover.
    """

    n_speakers: Count = 8
    n_sequences: Count = 40
    frames: Count = 60
    vertex_count: Count = 120
    bands: Count = 32
    latent_dim: Count = 8
    smooth_window: Count = 9
    noise_scale: NonNegative = 0.01
    seed: Index = 0

    def validate(self):
        check_field_types(self)
        if self.n_sequences < 3:
            raise ValueError("n_sequences must be >= 3 so the 8:1:1 split leaves a sequence in each part")
        if self.smooth_window % 2 != 1:
            raise ValueError("smooth_window must be odd")
        if self.vertex_count < 12:
            raise ValueError("vertex_count must be >= 12 so the region sets are non-empty and disjoint")


@dataclass
class ManifestEntry:
    speaker: Index
    features: str
    motion: str
    split: str

    def validate(self):
        check_field_types(self)
        if self.split not in ("train", "val", "test"):
            raise ValueError(f"unknown split {self.split!r}")


@dataclass
class DatasetManifest:
    template: str
    speakers: Count
    entries: list[ManifestEntry]
    lip_indices: list[Index]
    upper_indices: list[Index]

    def validate(self):
        check_field_types(self)
        if not self.entries:
            raise ValueError("manifest has no entries")
        for e in self.entries:
            if e.speaker >= self.speakers:
                raise ValueError(f"speaker id {e.speaker} out of range")
        lips, upper = set(self.lip_indices), set(self.upper_indices)
        if not lips or not upper:
            raise ValueError("lip and upper-face index sets must be non-empty")
        if lips & upper:
            raise ValueError("lip and upper-face index sets must be disjoint")


def save_manifest(path, manifest: DatasetManifest):
    manifest.validate()
    Path(path).write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    raw = Path(path).read_bytes()
    try:
        m = DatasetManifest(**json.loads(raw))
        m.entries = [ManifestEntry(**e) for e in m.entries]
        m.validate()
    except _DECODE_ERRORS as e:
        raise FileFormatError(f"{path}: malformed manifest: {e}") from e
    return m


# ---------------------------------------------------------------------------
# binary formats

class Reader:
    """Bounded little-endian decoder over one whole file (DTMO, DTPL, DTFT,
    DTCK). Each read checks that its bytes are present before it decodes or
    allocates. As a context manager it calls close() on a normal exit and
    reports _DECODE_ERRORS raised in the block as a FileFormatError."""

    def __init__(self, path, magic: bytes, version: int = FORMAT_VERSION):
        self.path, self.data, self.offset = path, Path(path).read_bytes(), 0
        got = self.take(4)
        if got != magic:
            raise BadMagicError(f"{path}: bad magic {got!r}, expected {magic!r}")
        (found,) = self.unpack("<I")
        if found != version:
            raise VersionMismatchError(f"{path}: version {found}, expected {version}")

    def take(self, n: int) -> bytes:
        end = self.offset + n
        if end > len(self.data):
            raise TruncatedFileError(f"{self.path}: expected {end} bytes, file has {len(self.data)}")
        chunk, self.offset = self.data[self.offset:end], end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next prod(shape) values of `dtype`, as a float64 array;
        callers check finiteness, so a stored NaN converts silently."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize)
        with np.errstate(invalid="ignore"):
            return np.frombuffer(raw, dtype=dtype).astype(np.float64).reshape(shape)

    def close(self):
        if self.offset != len(self.data):
            raise FileFormatError(f"{self.path}: {len(self.data) - self.offset} trailing bytes")

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            self.close()
        elif isinstance(exc, _DECODE_ERRORS) and not isinstance(exc, FileFormatError):
            raise FileFormatError(f"{self.path}: {exc}") from exc
        return False


def to_float32(values) -> np.ndarray:
    """values as the f32 formats store them; one too large becomes inf."""
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(values, dtype=_F4)


def _write_f32(path, magic: bytes, header: str, fields: tuple, what: str, values):
    """Writes `magic`, the u32 version, `fields` packed little-endian by the
    struct format `header`, then `values` as little-endian f32. Any value
    float32 storage would make non-finite is refused before the file opens."""
    stored = to_float32(values)
    if not np.isfinite(stored).all():
        raise ValueError(f"{path}: {what} overflow float32 storage")
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI" + header, magic, FORMAT_VERSION, *fields))
        f.write(stored.tobytes())


def save_motion(path, motion: MotionSequence):
    """DTMO: magic, u32 version, u32 frames, u32 vertices, f32 fps, then
    frames*vertices*3 little-endian f32 displacements in frame-major order.
    An fps that float32 storage makes 0 or inf is refused."""
    if not 0 < to_float32(motion.fps) < np.inf:
        raise ValueError(f"{path}: fps {motion.fps} is 0 or inf in float32 storage")
    _write_f32(path, MOTION_MAGIC, "IIf", (motion.frames, motion.vertex_count, motion.fps),
               "displacements", motion.displacements)


def load_motion(path) -> MotionSequence:
    with Reader(path, MOTION_MAGIC) as r:
        t, v, fps = r.unpack("<IIf")
        return MotionSequence(r.array(_F4, (t, v, 3)), fps)


def save_template(path, template: NeutralTemplate):
    """DTPL: magic, u32 version, u32 vertices, then vertices*3 f32 positions."""
    _write_f32(path, TEMPLATE_MAGIC, "I", (template.vertex_count,), "template positions", template.positions)


def load_template(path) -> NeutralTemplate:
    with Reader(path, TEMPLATE_MAGIC) as r:
        (v,) = r.unpack("<I")
        return NeutralTemplate(r.array(_F4, (v, 3)))


def save_features(path, features: FeatureSequence):
    """DTFT: magic, u32 version, u32 frames, u32 dim, then frames*dim f32."""
    _write_f32(path, FEATURE_MAGIC, "II", (features.frames, features.dim), "feature values", features.values)


def load_features(path) -> FeatureSequence:
    with Reader(path, FEATURE_MAGIC) as r:
        frames, dim = r.unpack("<II")
        return FeatureSequence(r.array(_F4, (frames, dim)))


def export_obj(path, template: NeutralTemplate, motion: MotionSequence, frame: int):
    """Write one deformed frame as Wavefront OBJ vertices (6 decimals); the
    template carries no connectivity, so no faces are written."""
    if motion.vertex_count != template.vertex_count:
        raise ValueError(
            f"vertex count mismatch: motion has {motion.vertex_count}, template has {template.vertex_count}"
        )
    if not (0 <= frame < motion.frames):
        raise ValueError(f"frame {frame} out of range for {motion.frames} frames")
    pos = template.positions + motion.displacements[frame]
    lines = [f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in pos]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# feature and motion ops

def resample_features(features: FeatureSequence, target_frames: int) -> FeatureSequence:
    """Linear interpolation onto `target_frames` frames over a shared
    normalized [0, 1] time axis; endpoint frames are preserved exactly."""
    if features.frames < 2:
        raise ValueError("resampling needs at least 2 source frames")
    if target_frames < 2:
        raise ValueError("resampling needs at least 2 target frames")
    src = np.linspace(0.0, 1.0, features.frames)
    dst = np.linspace(0.0, 1.0, target_frames)
    out = np.empty((target_frames, features.dim), dtype=np.float64)
    for j in range(features.dim):
        out[:, j] = np.interp(dst, src, features.values[:, j])
    return FeatureSequence(out)


def motion_to_positions(motion: MotionSequence, template: NeutralTemplate) -> np.ndarray:
    """Absolute vertex positions, shape (T, V, 3)."""
    if motion.vertex_count != template.vertex_count:
        raise ValueError(
            f"vertex count mismatch: motion has {motion.vertex_count}, template has {template.vertex_count}"
        )
    return motion.displacements + template.positions[None, :, :]


# ---------------------------------------------------------------------------
# synthetic dataset

def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    # convolve 'same' needs the kernel no longer than the signal; clamp to
    # the largest odd width that fits so short sequences still smooth
    if window > x.shape[0]:
        window = x.shape[0] if x.shape[0] % 2 else x.shape[0] - 1
    kernel = np.ones(window) / window
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        out[:, j] = np.convolve(x[:, j], kernel, mode="same")
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def default_region_sets(vertex_count: int) -> tuple[list[int], list[int]]:
    """Contiguous lip and upper-face index ranges used by the generator."""
    lips = list(range(0, vertex_count // 6))
    upper = list(range(vertex_count // 2, vertex_count // 2 + vertex_count // 4))
    return lips, upper


_SEQUENCE_FILE = re.compile(r"seq\d{3,}_(features|motion)\.bin")  # the generator's own file names


def generate_synthetic(spec: SyntheticSpec, out_dir) -> DatasetManifest:
    """Generate a paired dataset under out_dir and return its manifest.

    Draw order from the single seeded generator is fixed (template, then
    per-speaker mixing/blendshape matrices, then per-sequence latent noise
    and feature noise), so a given spec reproduces byte-identical files.
    The sequence files (seqNNN_*.bin) that a manifest already in out_dir
    names and the new one does not are removed once it is written.
    """
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        earlier = {name for e in load_manifest(out / "manifest.json").entries for name in (e.features, e.motion)}
    except (OSError, FileFormatError):
        earlier = set()
    rng = np.random.default_rng(spec.seed)
    t, v, b, p = spec.frames, spec.vertex_count, spec.bands, spec.latent_dim

    dirs = rng.standard_normal((v, 3))
    norms = np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    template = NeutralTemplate(dirs / norms)
    save_template(out / "template.bin", template)

    lips, upper = default_region_sets(v)
    lip_cols = np.array([3 * i + c for i in lips for c in range(3)])

    mixing = []
    blend = []
    for _ in range(spec.n_speakers):
        u = rng.standard_normal((p, b)) / np.sqrt(p)
        d = rng.standard_normal((p, v * 3)) / np.sqrt(p)
        d[:, lip_cols] *= SYNTH_LIP_AMPLIFICATION
        mixing.append(u)
        blend.append(d)

    n = spec.n_sequences
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    n_train = n - n_val - n_test

    entries = []
    for i in range(n):
        speaker = i % spec.n_speakers
        z = _moving_average(rng.standard_normal((t, p)), spec.smooth_window)
        noise = rng.standard_normal((t, b))
        feats = FeatureSequence(_softplus(z @ mixing[speaker]) + spec.noise_scale * noise)
        disp = (z @ blend[speaker]).reshape(t, v, 3) * SYNTH_DISPLACEMENT_SCALE
        motion = MotionSequence(disp, SYNTH_FPS)
        feat_name = f"seq{i:03d}_features.bin"
        mot_name = f"seq{i:03d}_motion.bin"
        save_features(out / feat_name, feats)
        save_motion(out / mot_name, motion)
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        entries.append(ManifestEntry(speaker, feat_name, mot_name, split))

    manifest = DatasetManifest(
        template="template.bin",
        speakers=spec.n_speakers,
        entries=entries,
        lip_indices=lips,
        upper_indices=upper,
    )
    save_manifest(out / "manifest.json", manifest)
    for name in earlier - {name for e in entries for name in (e.features, e.motion)}:
        if _SEQUENCE_FILE.fullmatch(name):
            (out / name).unlink(missing_ok=True)
    return manifest


# ---------------------------------------------------------------------------
# loaded view used by training/evaluation

@dataclass
class SequenceRecord:
    speaker: int
    features: FeatureSequence
    motion: MotionSequence
    split: str
    name: str


@dataclass
class LoadedDataset:
    manifest: DatasetManifest
    template: NeutralTemplate
    sequences: list[SequenceRecord]

    def __post_init__(self):
        # Compared as Python ints: an index past int64 must not overflow.
        if max(self.manifest.lip_indices + self.manifest.upper_indices) >= self.template.vertex_count:
            raise ValueError("region indices exceed template vertex count")

    def split(self, name: str) -> list[SequenceRecord]:
        return [s for s in self.sequences if s.split == name]

    @property
    def audio_dim(self) -> int:
        return self.sequences[0].features.dim

    @property
    def max_frames(self) -> int:
        return max(s.motion.frames for s in self.sequences)


def load_dataset(manifest_path) -> LoadedDataset:
    """Load every sequence referenced by a manifest into memory.

    Features whose frame count differs from the motion's are resampled to the
    motion length here, so downstream code always sees aligned pairs.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    root = manifest_path.parent
    template = load_template(root / manifest.template)
    sequences = []
    for e in manifest.entries:
        feats = load_features(root / e.features)
        motion = load_motion(root / e.motion)
        if motion.vertex_count != template.vertex_count:
            raise ValueError(f"{e.motion}: vertex count differs from template")
        if sequences and feats.dim != sequences[0].features.dim:
            raise ValueError(f"{e.features}: {feats.dim} feature bands, the first sequence has {sequences[0].features.dim}")
        if feats.frames != motion.frames:
            feats = resample_features(feats, motion.frames)
        sequences.append(SequenceRecord(e.speaker, feats, motion, e.split, Path(e.features).stem))
    return LoadedDataset(manifest, template, sequences)
