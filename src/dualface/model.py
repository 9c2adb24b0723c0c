"""Shared-backbone dual-direction sequence model.

The primal direction maps audio features to per-frame vertex displacements;
the dual direction maps motion back to audio features (lip reading). Both
ride on the same encoders, style table, and positional table, and the fusion
attention shares its projection matrices across directions: the matrix
applied to audio-derived rows serves as the query projection in the primal
direction and the key projection in the dual direction (and vice versa for
motion-derived rows), as single Parameter objects, not copies.

Attention is causally masked in both the history self-attention and the
fusion cross-attention, so frame t never sees history rows beyond t; that is
what lets generation decode one row per frame against cached keys and values
and still reproduce the teacher-forced pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct

import numpy as np

from dataclasses import dataclass, asdict
from functools import partial
from typing import Callable, Iterator, Sequence

from . import diffcore as dc
from .data import Count, FeatureSequence, FileFormatError, MotionSequence, Reader, SYNTH_FPS, check_field_types

CHECKPOINT_MAGIC = b"DTCK"
CHECKPOINT_VERSION = 1
_F8 = np.dtype("<f8")

# Additive mask value for blocked attention positions: large enough that
# exp underflows to exactly 0 after max subtraction, while staying finite.
_MASK_VALUE = -1e30


@dataclass(frozen=True)
class ModelConfig:
    """The dataset gives the first three fields and bounds max_frames; the
    defaults, which the CLI uses, size the model for the synthetic dataset."""

    audio_dim: Count
    vertex_count: Count
    n_speakers: Count
    max_frames: Count
    d: Count = 32
    fusion_heads: Count = 4
    self_heads: Count = 4
    squeeze_ratio: Count = 16
    ff_dim: Count = 128
    share_transpose_codec: bool = False

    def validate(self):
        check_field_types(self)
        if self.d % self.fusion_heads != 0:
            raise ValueError("d must be divisible by fusion_heads")
        if self.d % self.self_heads != 0:
            raise ValueError("d must be divisible by self_heads")
        if (2 * self.d) % self.squeeze_ratio != 0:
            raise ValueError("2*d must be divisible by squeeze_ratio")


def _layout(c: ModelConfig) -> Iterator[tuple[str, tuple[int, int], Callable[[np.random.Generator], np.ndarray]]]:
    """Every parameter in registration order, which is also the checkpoint
    order: name, shape and seeded initialiser. Biases draw nothing, so the
    draw order is that of the weights and tables. A generator, so a loader
    walking it meets a missing record before the next shape is even made."""
    c.validate()
    dk_self = c.d // c.self_heads
    dk_fuse = c.d // c.fusion_heads
    hidden = (2 * c.d) // c.squeeze_ratio

    def w(name, shape, fan_in):
        return name, shape, lambda rng: rng.standard_normal(shape) / np.sqrt(fan_in)

    def b(name, width):
        return name, (1, width), lambda rng: np.zeros((1, width))

    def table(name, shape):
        return name, shape, lambda rng: 0.1 * rng.standard_normal(shape)

    yield w("audio_encoder.weight", (c.audio_dim, c.d), c.audio_dim)
    yield b("audio_encoder.bias", c.d)
    yield w("motion_encoder.weight", (3 * c.vertex_count, c.d), 3 * c.vertex_count)
    yield b("motion_encoder.bias", c.d)
    yield table("style_table", (c.n_speakers, c.d))
    yield table("positional_table", (c.max_frames, c.d))
    yield table("start_token.motion", (1, c.d))
    yield table("start_token.audio", (1, c.d))
    for stream in ("motion", "audio"):
        for h in range(c.self_heads):
            for proj in ("q", "k", "v"):
                yield w(f"self_attn.{stream}.h{h}.{proj}", (c.d, dk_self), c.d)
        yield w(f"self_attn.{stream}.out", (c.d, c.d), c.d)
        yield w(f"speaker_gate.{stream}.fc1.weight", (2 * c.d, hidden), 2 * c.d)
        yield b(f"speaker_gate.{stream}.fc1.bias", hidden)
        yield w(f"speaker_gate.{stream}.fc2.weight", (hidden, c.d), hidden)
        yield b(f"speaker_gate.{stream}.fc2.bias", c.d)
    for h in range(c.fusion_heads):
        yield w(f"fusion.qk_audio.h{h}", (c.d, dk_fuse), c.d)
    for h in range(c.fusion_heads):
        yield w(f"fusion.qk_motion.h{h}", (c.d, dk_fuse), c.d)
    for direction in ("primal", "dual"):
        for h in range(c.fusion_heads):
            yield w(f"fusion.{direction}.v.h{h}", (c.d, dk_fuse), c.d)
        yield w(f"fusion.{direction}.out", (c.d, c.d), c.d)
        yield w(f"fusion.{direction}.ff1.weight", (c.d, c.ff_dim), c.d)
        yield b(f"fusion.{direction}.ff1.bias", c.ff_dim)
        yield w(f"fusion.{direction}.ff2.weight", (c.ff_dim, c.d), c.ff_dim)
        yield b(f"fusion.{direction}.ff2.bias", c.d)
    if not c.share_transpose_codec:
        yield w("motion_decoder.weight", (c.d, 3 * c.vertex_count), c.d)
    yield b("motion_decoder.bias", 3 * c.vertex_count)
    yield w("audio_decoder.hidden.weight", (c.d, c.d), c.d)
    yield b("audio_decoder.hidden.bias", c.d)
    if not c.share_transpose_codec:
        yield w("audio_decoder.out.weight", (c.d, c.audio_dim), c.d)
    yield b("audio_decoder.out.bias", c.audio_dim)


def _head_stacks(c: ModelConfig) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """Each block's per-head weights, which lie together in the layout, as
    one stack: its name, its first member's and its shape, (H, 3, d, dk) for
    a self-attention stream's q, k and v, (H, d, dk) for a fusion role's."""
    for stream in ("motion", "audio"):
        yield f"self_attn.{stream}.h*.qkv", f"self_attn.{stream}.h0.q", (c.self_heads, 3, c.d, c.d // c.self_heads)
    for role in ("qk_audio", "qk_motion", "primal.v", "dual.v"):
        yield f"fusion.{role}.h*", f"fusion.{role}.h0", (c.fusion_heads, c.d, c.d // c.fusion_heads)


class ModelParams:
    """Registration-ordered parameter store.

    Registration order is the serialization order; shared tensors are
    registered once and referenced through the same Parameter object
    everywhere they are used. All values, and all gradients, sit in one flat
    float64 buffer each (`values`, `gradients`) in that order; every
    parameter's value and gradient is a view into them, so the optimizer
    updates every parameter with whole-buffer operations. Unregistered
    stacks of the blocks' per-head weights view the same buffers.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        """Seeded initialisation, drawing from rng in registration order."""
        self._lay_out(config, lambda name, init: init(rng))

    @classmethod
    def from_values(cls, config: ModelConfig, values: dict[str, np.ndarray]) -> ModelParams:
        """Parameters holding values already read, in registration order."""
        params = cls.__new__(cls)
        params._lay_out(config, lambda name, init: values[name])
        return params

    def _lay_out(self, config: ModelConfig, value_of: Callable[[str, Callable], np.ndarray]):
        layout = list(_layout(config))
        self.config = config
        self._spans, start = {}, 0  # name -> (offset, shape)
        for name, shape, _ in layout:
            self._spans[name], start = (start, shape), start + math.prod(shape)
        self.values, self.gradients = np.empty(start), np.zeros(start)
        values, gradients = self.views(self.values), self.views(self.gradients)
        self._params = {}
        for name, _, init in layout:
            values[name][...] = value_of(name, init)
            self._params[name] = dc.Parameter(name, values[name], gradients[name])
        self._stacks = {}
        for name, first, shape in _head_stacks(config):
            start, size = self._spans[first][0], math.prod(shape)
            self._stacks[name] = dc.Parameter(name, *(flat[start:start + size].reshape(shape)
                                                      for flat in (self.values, self.gradients)))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view, by name, into a buffer laid out like `values`."""
        return {name: flat[start:start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in self._spans.items()}

    def __getitem__(self, name: str) -> dc.Parameter:
        """A registered parameter, or a stack of per-head weights (`…h*…`)."""
        return self._params[name] if name in self._params else self._stacks[name]

    def named_parameters(self) -> list[tuple[str, dc.Parameter]]:
        return list(self._params.items())

    def parameters(self) -> list[dc.Parameter]:
        return list(self._params.values())

    def zero_gradients(self):
        self.gradients.fill(0.0)

    def motion_decoder_weight(self) -> dc.Tensor:
        """(d, 3V) decoder weight; the transpose of the encoder when tied."""
        if self.config.share_transpose_codec:
            return dc.transpose_last_two(self["motion_encoder.weight"])
        return self["motion_decoder.weight"]

    def audio_decoder_out_weight(self) -> dc.Tensor:
        if self.config.share_transpose_codec:
            return dc.transpose_last_two(self["audio_encoder.weight"])
        return self["audio_decoder.out.weight"]


@dataclass
class ForwardOutputs:
    """One direction's teacher-forced outputs, still attached to the tape."""

    prediction: dc.Tensor      # (T, 3V) primal, (T, audio_dim) dual
    fused: dc.Tensor           # (T, d) fusion output feeding the decoder
    audio_latent: dc.Tensor    # (T, d) encoded audio
    motion_latent: dc.Tensor   # (T, d) encoded ground-truth motion


class KVCache:
    """One attention block's keys and values of the rows decoded so far, in
    (..., T, dk) arrays allocated at the first extend, with a leading axis
    per head (and per sequence of a group). Each row is written once from a
    checked primitive output; it hands out two tape leaves, rebound on each
    extend, so a traced frame's records read the rows cached since."""

    def __init__(self, frames: int):
        self.frames, self.rows = frames, 0
        self.leaves = dc.Tensor._wrap(np.empty(0)), dc.Tensor._wrap(np.empty(0))
        self.fed = None  # the (k, v) tensors of the last extend

    @classmethod
    def group(cls, caches: Sequence[KVCache]) -> KVCache:
        """The caches of B sequences holding the same rows, as one over (B,
        ...) stacks of their arrays, handing out through the first's leaves."""
        group = cls(caches[0].frames)
        group.keys, group.values = (np.stack(arrays) for arrays in zip(*((c.keys, c.values) for c in caches)))
        group.rows, group.leaves = caches[0].rows, caches[0].leaves
        return group

    def extend(self, k: dc.Tensor, v: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
        """Store the newest row's keys and values, (..., 1, dk); returns all
        rows' keys transposed, (..., dk, rows), as the C-contiguous copy that
        transpose-last-two would give, and a view of their values."""
        if self.rows == 0:
            self.keys, self.values = (np.empty((*x.shape[:-2], self.frames, x.shape[-1])) for x in (k.data, v.data))
        self.keys[..., self.rows, :], self.values[..., self.rows, :] = k.data[..., 0, :], v.data[..., 0, :]
        self.rows, self.fed = self.rows + 1, (k, v)
        keys_t, values = self.leaves
        keys_t.data, values.data = np.swapaxes(self.keys[..., :self.rows, :], -1, -2).copy(), self.values[..., :self.rows, :]
        return self.leaves


# ---------------------------------------------------------------------------
# building blocks

def _causal_mask(shape: tuple[int, ...]) -> dc.Tensor:
    """The additive mask of (..., T, T) logits, a view of one (T, T) array."""
    return dc.Tensor._wrap(np.broadcast_to(np.triu(np.full(shape[-2:], _MASK_VALUE), k=1), shape))


def _repeat_row(row: dc.Tensor, rows: int) -> dc.Tensor:
    """A (1, w) row repeated to `rows` rows; one row is used as it is."""
    return row if rows == 1 else dc.broadcast_row(row, rows)


def _affine(x: dc.Tensor, weight: dc.Tensor, bias: dc.Tensor) -> dc.Tensor:
    return dc.add(dc.matmul(x, weight), _repeat_row(bias, x.data.shape[0]))


def attention_heads(q: dc.Tensor, k: dc.Tensor, v: dc.Tensor, cache: KVCache | None = None) -> dc.Tensor:
    """A block's heads' scaled-dot-product contexts, side by side, (T, H·dk),
    from (..., T, dk) queries, keys and values whose leading axes are head
    axes: one record per step for all the heads. Query row t attends kv rows
    0..t through a causal mask or, with a cache, as the one newest row."""
    if cache is not None and q.shape[-2] != 1:
        raise dc.ShapeMismatchError("cached attention decodes one row per call")
    k_t, v = cache.extend(k, v) if cache is not None else (dc.transpose_last_two(k), v)
    logits = dc.scalar_multiply(dc.matmul(q, k_t), 1.0 / np.sqrt(q.shape[-1]))
    if cache is None:
        logits = dc.add(logits, _causal_mask(logits.shape))
    return dc.merge_heads(dc.matmul(dc.softmax_rows(logits), v))


def _check_frames(params: ModelParams, t: int, what: str):
    if t < 1:
        raise ValueError(f"{what}: need at least one frame")
    if t > params.config.max_frames:
        raise ValueError(f"{what}: {t} frames exceeds max_frames={params.config.max_frames}")


def _encode(params: ModelParams, x, modality: str, start: int) -> dc.Tensor:
    what, c = f"encode_{modality}", params.config
    if isinstance(x, FeatureSequence):
        x = dc.Tensor(x.values)
    elif isinstance(x, MotionSequence):
        x = dc.Tensor(x.displacements.reshape(x.frames, 3 * x.vertex_count))
    elif not isinstance(x, dc.Tensor):
        raise TypeError(f"{what}: unsupported input type {type(x).__name__}")
    cols = x.data.shape[1] if x.data.ndim == 2 else -1
    width = c.audio_dim if modality == "audio" else 3 * c.vertex_count
    if cols != width:
        raise dc.ShapeMismatchError(f"{what}: expected {width} columns, got {cols}")
    t = x.data.shape[0]
    _check_frames(params, start + t, what)
    pos = dc.slice_axis(params["positional_table"], 0, start, start + t)
    return dc.add(_affine(x, params[f"{modality}_encoder.weight"], params[f"{modality}_encoder.bias"]), pos)


def encode_audio(params: ModelParams, features, start: int = 0) -> dc.Tensor:
    """Affine band-feature encoding plus positional rows from `start`, (T, d)."""
    return _encode(params, features, "audio", start)


def encode_motion(params: ModelParams, motion, start: int = 0) -> dc.Tensor:
    """Affine flattened-displacement encoding plus positional rows from `start`, (T, d)."""
    return _encode(params, motion, "motion", start)


def _encoder(modality: str):
    # Resolved per call, so wrappers installed on this module see every call.
    return encode_audio if modality == "audio" else encode_motion


def check_speaker(config: ModelConfig, speaker: int):
    if not 0 <= speaker < config.n_speakers:
        raise ValueError(f"speaker {speaker} out of range [0, {config.n_speakers})")


def style_embed(params: ModelParams, speaker: int) -> dc.Tensor:
    """(1, d) style row; gradients reach only the selected row."""
    check_speaker(params.config, speaker)
    return dc.slice_axis(params["style_table"], 0, speaker, speaker + 1)


def _decode_motion(params: ModelParams, fused: dc.Tensor, out_weight: dc.Tensor) -> dc.Tensor:
    """(T, d) fused rows to (T, 3V) flattened displacements."""
    return _affine(fused, out_weight, params["motion_decoder.bias"])


def _decode_audio(params: ModelParams, fused: dc.Tensor, out_weight: dc.Tensor) -> dc.Tensor:
    """(T, d) fused rows to (T, audio_dim) features through a relu layer."""
    hidden = dc.relu(_affine(fused, params["audio_decoder.hidden.weight"], params["audio_decoder.hidden.bias"]))
    return _affine(hidden, out_weight, params["audio_decoder.out.bias"])


@dataclass(frozen=True)
class Direction:
    """What tells the two directions apart; one forward and one generator
    serve both. The target names the start token and the self-attention and
    speaker-gate stream; shared fusion projections are named by the modality
    they project (source rows query, history rows key)."""

    name: str    # "primal" or "dual"; prefixes its own fusion.{name}.* parameters
    source: str  # modality of the conditioning input, encoded in full
    target: str  # modality predicted and fed back as history
    decode: Callable[[ModelParams, dc.Tensor, dc.Tensor], dc.Tensor]  # (params, fused rows, out_weight)
    out_weight: Callable[[ModelParams], dc.Tensor]  # the decoder's last weight


DIRECTIONS = {
    "primal": Direction("primal", "audio", "motion", _decode_motion, ModelParams.motion_decoder_weight),
    "dual": Direction("dual", "motion", "audio", _decode_audio, ModelParams.audio_decoder_out_weight),
}


def _direction(name: str) -> Direction:
    if name not in DIRECTIONS:
        raise ValueError(f"direction must be 'primal' or 'dual', got {name!r}")
    return DIRECTIONS[name]


def self_attend(params: ModelParams, stream: dc.Tensor, direction: str, cache: KVCache | None = None) -> dc.Tensor:
    """Causally masked multi-head self-attention with post-norm residual;
    with a cache, `stream` is the one newest history row. One product
    projects every head's q, k and v, (H, 3, T, dk), each then a slice."""
    name = _direction(direction).target
    _check_frames(params, stream.data.shape[0], "self_attend")
    qkv = dc.matmul(stream, params[f"self_attn.{name}.h*.qkv"])
    heads = attention_heads(*(dc.slice_axis(qkv, 1, i, i + 1) for i in range(3)), cache)
    ctx = dc.matmul(heads, params[f"self_attn.{name}.out"])
    return dc.layer_norm_rows(dc.add(stream, ctx))


def speaker_modulate(params: ModelParams, stream: dc.Tensor, style: dc.Tensor, direction: str) -> dc.Tensor:
    """Sigmoid gates from MLP(concat(style, frame)) applied to the stream."""
    name = _direction(direction).target
    t = stream.data.shape[0]
    joint = dc.concat_last(_repeat_row(style, t), stream)
    hidden = dc.relu(_affine(joint, params[f"speaker_gate.{name}.fc1.weight"], params[f"speaker_gate.{name}.fc1.bias"]))
    gate = dc.sigmoid(_affine(hidden, params[f"speaker_gate.{name}.fc2.weight"], params[f"speaker_gate.{name}.fc2.bias"]))
    return dc.multiply(gate, stream)


def cross_attend(params: ModelParams, queries: dc.Tensor, kv: dc.Tensor, direction: str,
                 cache: KVCache | None = None) -> dc.Tensor:
    """Fusion attention between modalities, then position-wise feed-forward.
    Projections are shared across directions per modality of the projected
    rows, each one product over its (H, d, dk) stack of heads; query row t
    sees history rows 0..t only."""
    d = _direction(direction)
    tq, tk = queries.data.shape[0], kv.data.shape[0]
    if tq != tk:
        raise dc.ShapeMismatchError(f"cross_attend expects equal lengths, got {tq} and {tk}")
    own = f"fusion.{d.name}"
    roles = (f"fusion.qk_{d.source}", f"fusion.qk_{d.target}", f"{own}.v")
    q, k, v = (dc.matmul(x, params[f"{role}.h*"]) for x, role in zip((queries, kv, kv), roles))
    ctx = dc.matmul(attention_heads(q, k, v, cache), params[f"{own}.out"])
    x = dc.layer_norm_rows(dc.add(queries, ctx))
    hidden = dc.relu(_affine(x, params[f"{own}.ff1.weight"], params[f"{own}.ff1.bias"]))
    ff = _affine(hidden, params[f"{own}.ff2.weight"], params[f"{own}.ff2.bias"])
    return dc.layer_norm_rows(dc.add(x, ff))


def _shifted_history(params: ModelParams, encoded: dc.Tensor, start_name: str) -> dc.Tensor:
    """[start token; encoded rows 0..T-1) ] -- the teacher-forcing shift, as
    shift @ encoded + first @ start with the (T, T) subdiagonal and the first
    unit column. Each entry sums one nonzero term, so the rows are exact."""
    t = encoded.data.shape[0]
    shifted = dc.matmul(dc.Tensor(np.eye(t, k=-1)), encoded)
    return dc.add(shifted, dc.matmul(dc.Tensor(np.eye(t, 1)), params[start_name]))


def _forward(params: ModelParams, d: Direction, source, speaker: int, target) -> ForwardOutputs:
    latents = {d.source: _encoder(d.source)(params, source), d.target: _encoder(d.target)(params, target)}
    t, t_gt = (latents[m].data.shape[0] for m in (d.source, d.target))
    if t != t_gt:
        raise dc.ShapeMismatchError(f"forward_{d.name}: {d.source} has {t} frames but {d.target} has {t_gt}")
    history = _shifted_history(params, latents[d.target], f"start_token.{d.target}")
    ctx = self_attend(params, history, d.name)
    gated = speaker_modulate(params, ctx, style_embed(params, speaker), d.name)
    fused = cross_attend(params, latents[d.source], gated, d.name)
    return ForwardOutputs(d.decode(params, fused, d.out_weight(params)), fused, latents["audio"], latents["motion"])


def _generate(params: ModelParams, d: Direction, sources: Sequence, speakers: Sequence[int]) -> list[np.ndarray]:
    """Decodes each source with its speaker, in input order: every source
    is encoded once, and those of one frame count, in order of first
    appearance, decode as one group (_decode), one row per frame. Frame t
    sends one history row (the start token, or frame t-1 encoded at
    position t-1) through every block, attending over the block's K/V
    cache, which holds exactly the rows frame t may see; so frame t equals
    row t of teacher forcing.

    Frames 0 and 1 of each sequence run the model code, frame 1 of a
    group's first under a tape. Every later frame replays those records
    once for the group, as a diffcore.Program of the group's batch with the
    previous predictions, source rows, style rows (of several sequences)
    and positional slice rebound, so each sequence meets the forward calls
    that decoding it alone makes: the output is bit-identical. The records
    are cut after each block's k and v, where the replay extends the
    block's cache (a KVCache.group, for several) as the traced frame did;
    the block's logits, scaled logits and softmax, whose shapes grow with
    the cache, are unplanned. A NonFiniteError from several sources decodes
    them again one at a time, in input order, and raises what that raises
    first."""
    if len(speakers) != len(sources):
        raise ValueError(f"{len(speakers)} speakers for {len(sources)} sequences")
    outputs, groups = {}, {}
    try:
        rows = [_encoder(d.source)(params, source).data for source in sources]
        for i, r in enumerate(rows):
            groups.setdefault(r.shape[0], []).append(i)
        for group in groups.values():
            outputs.update(zip(group, _decode(params, d, [rows[i] for i in group], [speakers[i] for i in group])))
    except dc.NonFiniteError:
        if len(sources) > 1:
            for source, speaker in zip(sources, speakers):
                _generate(params, d, [source], [speaker])
        raise
    return [outputs[i] for i in range(len(sources))]


def _decode(params: ModelParams, d: Direction, rows: Sequence[np.ndarray], speakers: Sequence[int]) -> list[np.ndarray]:
    batch, frames = len(rows), rows[0].shape[0]
    rows = np.stack(rows, 1).reshape(frames, batch, 1, -1)  # source row t of sequence b at [t, b]
    styles = [style_embed(params, speaker) for speaker in speakers]
    caches = [(KVCache(frames), KVCache(frames)) for _ in range(batch)]  # self-attention, fusion
    out_weight = d.out_weight(params)  # constant: a tied codec transposes once
    out = np.empty((batch, frames, out_weight.data.shape[1]))

    def frame(history: dc.Tensor, t: int, b: int) -> tuple[dc.Tensor, dc.Tensor]:
        row = dc.Tensor._wrap(rows[t, b])  # read in place: a leaf of checked data
        self_cache, fusion_cache = caches[b]
        ctx = self_attend(params, history, d.name, self_cache)
        gated = speaker_modulate(params, ctx, styles[b], d.name)
        pred = d.decode(params, cross_attend(params, row, gated, d.name, fusion_cache), out_weight)
        out[b, t] = pred.data[0]
        return row, pred

    for b in range(batch):
        _, prev = frame(params[f"start_token.{d.target}"], 0, b)
        if frames > 1:
            with dc.Tape() if b == 0 else contextlib.nullcontext() as tape:
                row, pred = frame(_encoder(d.target)(params, prev, start=0), 1, b)
            if b == 0:
                leaves, records, last = [prev, row], tape.records, pred
    if frames > 2:
        pos = next(r for r in records if r.inputs[0] is params["positional_table"])
        ends = {r.output: i + 1 for i, r in enumerate(records)}

        def reader(leaf):
            return next(i for i, r in enumerate(records) if leaf in r.inputs)

        first = caches[0]
        if batch > 1:  # the style row, a constant of one sequence, is a leaf of several
            leaves.append(styles[0])
            inputs, style, group = rows, [np.stack([s.data for s in styles])], map(KVCache.group, zip(*caches))
        else:
            inputs, style, group = rows[:, 0], [], first
        program = dc.Program(
            records, [*leaves, *(leaf for cache in first for leaf in cache.leaves)], [pos],
            {max(ends[t] for t in cache.fed): partial(g.extend, *cache.fed) for cache, g in zip(first, group)},
            [r for cache in first for r in records[reader(cache.leaves[0]):reader(cache.leaves[1])]], batch)
        prev = out[:, 1:2].reshape(last.data.shape).copy()
        for t in range(2, frames):
            program.run([prev, inputs[t], *style], start=t - 1, stop=t)
            prev = last.data.copy()  # out of the storage the next frame overwrites
            out[:, t] = prev.reshape(batch, -1)
    return list(out)


def forward_primal(params: ModelParams, features, speaker: int, gt_motion) -> ForwardOutputs:
    """Teacher-forced audio-to-motion pass; the last gt frame is never read."""
    return _forward(params, DIRECTIONS["primal"], features, speaker, gt_motion)


def forward_dual(params: ModelParams, motion, speaker: int, gt_features) -> ForwardOutputs:
    """Teacher-forced motion-to-audio pass (lip reading)."""
    return _forward(params, DIRECTIONS["dual"], motion, speaker, gt_features)


def generate_motions(params: ModelParams, features: Sequence, speakers: Sequence[int],
                     fps: float = SYNTH_FPS) -> list[MotionSequence]:
    """generate_motion of each features sequence with its speaker, those of
    one length decoded together; bit-identical to one at a time."""
    return [MotionSequence(out.reshape(out.shape[0], params.config.vertex_count, 3), fps)
            for out in _generate(params, DIRECTIONS["primal"], features, speakers)]


def generate_motion(params: ModelParams, features, speaker: int, fps: float = SYNTH_FPS) -> MotionSequence:
    """Strict autoregressive decoding: frame t is predicted from audio rows
    0..t and the frames generated before it."""
    (motion,) = generate_motions(params, [features], [speaker], fps)
    return motion


def generate_audio(params: ModelParams, motion, speaker: int) -> FeatureSequence:
    """Autoregressive feature decoding, mirror of generate_motion."""
    (out,) = _generate(params, DIRECTIONS["dual"], [motion], [speaker])
    return FeatureSequence(out)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: ModelParams):
    """DTCK: magic, u32 version, u32 json_len, header JSON (the config and
    dtype "f64"), then for each parameter in registration order: u32
    name_len, name, u32 rank, u32 dims, little-endian f64 values.

    Like load_checkpoint, refuses a parameter holding non-finite values,
    before the file is opened."""
    blob = json.dumps({"config": asdict(params.config), "dtype": "f64"}, sort_keys=True).encode("utf-8")
    stored = []
    for name, p in params.named_parameters():
        values = np.ascontiguousarray(p.data, dtype=_F8)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
        stored.append((name, p.shape, values))
    with open(path, "wb") as f:
        f.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for name, shape, values in stored:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", len(shape)))
            f.write(struct.pack(f"<{len(shape)}I", *shape))
            f.write(values.tobytes())


def load_checkpoint(path) -> ModelParams:
    """Reads the header, then walks the parameter layout it implies: each
    record's name, rank and shape are checked against the layout before its
    values are read, so memory stays bounded by the file's own size."""
    with Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as r:
        (blob_len,) = r.unpack("<I")
        header = json.loads(r.take(blob_len))
        if not isinstance(header, dict) or set(header) != {"config", "dtype"}:
            raise FileFormatError(f"{path}: header must hold exactly 'config' and 'dtype'")
        if header["dtype"] != "f64":
            raise FileFormatError(f"{path}: unknown dtype {header['dtype']!r}")
        config = ModelConfig(**header["config"])
        values = {}
        for name, shape, _ in _layout(config):
            (name_len,) = r.unpack("<I")
            got = r.take(name_len)
            if got != name.encode("utf-8"):
                raise FileFormatError(f"{path}: expected parameter {name!r}, found {got!r}")
            (rank,) = r.unpack("<I")
            if rank != len(shape) or r.unpack(f"<{rank}I") != shape:
                raise FileFormatError(f"{path}: {name!r} is not stored with shape {shape}")
            values[name] = r.array(_F8, shape)
            if not np.isfinite(values[name]).all():
                raise FileFormatError(f"{path}: parameter {name!r} holds non-finite values")
        return ModelParams.from_values(config, values)
