import gc
import struct
import weakref

import numpy as np
import pytest

from dualface import diffcore as dc
from dualface import model as dm
from dualface.data import FeatureSequence, MotionSequence

import oracles
from oracles import assert_close


def small_config(**overrides):
    base = dict(
        d=8, audio_dim=5, vertex_count=6, n_speakers=3, max_frames=12,
        fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=16,
    )
    base.update(overrides)
    return dm.ModelConfig(**base)


def _spy_forward_rules(monkeypatch, seen):
    """Calls seen(kind, arrays, attrs, output) at every application of a
    kind's forward call: eager, and replayed into tape storage or not,
    bound on each run or once when a Program was built."""
    for kind in dc.PrimitiveKind:
        def bind(arrays, attrs, out, batch=0, kind=kind, real=kind.bind):
            call, saved = real(arrays, attrs, out, batch)

            def bound():
                output = call()
                seen(kind, arrays, attrs, output)
                return output

            return bound, saved

        monkeypatch.setattr(kind, "bind", bind)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(d=9).validate()  # 9 % 2 heads != 0
    with pytest.raises(ValueError):
        small_config(squeeze_ratio=5).validate()  # 2d % r != 0
    with pytest.raises(ValueError):
        small_config(n_speakers=0).validate()
    with pytest.raises(TypeError):
        small_config(max_frames=2.5).validate()
    with pytest.raises(TypeError):
        small_config(share_transpose_codec=1).validate()
    small_config().validate()


def test_param_shapes_and_registration():
    cfg = small_config()
    params = dm.ModelParams(cfg, np.random.default_rng(0))
    names = [n for n, _ in params.named_parameters()]
    assert names[0] == "audio_encoder.weight"
    assert len(names) == len(set(names))
    assert params["audio_encoder.weight"].value.shape == (5, 8)
    assert params["motion_encoder.weight"].value.shape == (18, 8)
    assert params["style_table"].value.shape == (3, 8)
    assert params["positional_table"].value.shape == (12, 8)
    assert params["motion_decoder.weight"].value.shape == (8, 18)
    assert params["audio_decoder.out.weight"].value.shape == (8, 5)
    assert params["speaker_gate.motion.fc1.weight"].value.shape == (16, 4)
    assert params["fusion.qk_audio.h0"].value.shape == (8, 4)


def test_qk_projections_shared_between_directions():
    """The audio-side q/k projection is one Parameter serving as Q in the
    primal fusion and K in the dual fusion (and vice versa for motion)."""
    cfg = small_config()
    params = dm.ModelParams(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    q = dc.Tensor(rng.standard_normal((4, 8)))
    kv = dc.Tensor(rng.standard_normal((4, 8)))
    before_primal = dm.cross_attend(params, q, kv, "primal").data.copy()
    before_dual = dm.cross_attend(params, q, kv, "dual").data.copy()
    params["fusion.qk_audio.h0"].value.data += 0.05
    after_primal = dm.cross_attend(params, q, kv, "primal").data
    after_dual = dm.cross_attend(params, q, kv, "dual").data
    assert not np.allclose(before_primal, after_primal)
    assert not np.allclose(before_dual, after_dual)


def test_share_transpose_codec_ties_weights():
    cfg = small_config(share_transpose_codec=True)
    params = dm.ModelParams(cfg, np.random.default_rng(3))
    names = {n for n, _ in params.named_parameters()}
    assert "motion_decoder.weight" not in names
    assert "audio_decoder.out.weight" not in names
    assert "motion_decoder.bias" in names  # biases stay independent
    dec = params.motion_decoder_weight()
    assert np.array_equal(dec.data, params["motion_encoder.weight"].value.data.T)
    params["motion_encoder.weight"].value.data[0, 0] += 1.0
    assert np.array_equal(
        params.motion_decoder_weight().data, params["motion_encoder.weight"].value.data.T
    )
    aud = params.audio_decoder_out_weight()
    assert np.array_equal(aud.data, params["audio_encoder.weight"].value.data.T)


def test_style_embed_range():
    params = dm.ModelParams(small_config(), np.random.default_rng(4))
    row = dm.style_embed(params, 2)
    assert row.shape == (1, 8)
    assert np.array_equal(row.data[0], params["style_table"].value.data[2])
    with pytest.raises(ValueError):
        dm.style_embed(params, 3)
    with pytest.raises(ValueError):
        dm.style_embed(params, -1)


def test_frame_limit_enforced():
    params = dm.ModelParams(small_config(max_frames=4), np.random.default_rng(5))
    feats = FeatureSequence(np.zeros((5, 5)))
    with pytest.raises(ValueError):
        dm.encode_audio(params, feats)


def test_forward_shapes_and_latents():
    params = dm.ModelParams(small_config(), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    t = 6
    feats = FeatureSequence(rng.standard_normal((t, 5)))
    motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
    primal = dm.forward_primal(params, feats, 1, motion)
    assert primal.prediction.data.shape == (t, 18)
    assert primal.fused.shape == (t, 8)
    assert primal.audio_latent.shape == (t, 8)
    assert primal.motion_latent.shape == (t, 8)
    dual = dm.forward_dual(params, motion, 1, feats)
    assert dual.prediction.data.shape == (t, 5)
    with pytest.raises(ValueError):
        dm.forward_primal(params, feats, 1, MotionSequence(np.zeros((t + 1, 6, 3)), 25.0))


def test_prediction_causal_in_history():
    """Changing ground-truth frame k must leave predictions 0..k untouched
    bit for bit (frame t conditions only on history frames < t)."""
    params = dm.ModelParams(small_config(), np.random.default_rng(8))
    rng = np.random.default_rng(9)
    t = 7
    feats = FeatureSequence(rng.standard_normal((t, 5)))
    motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
    base = dm.forward_primal(params, feats, 2, motion).prediction.data.copy()
    for k in range(t):
        bumped = motion.displacements.copy()
        bumped[k] += 0.7
        out = dm.forward_primal(params, feats, 2, MotionSequence(bumped, 25.0)).prediction.data
        assert np.array_equal(out[: k + 1], base[: k + 1]), f"frame {k} leaked forward"
        if k + 1 < t:
            assert not np.allclose(out[k + 1], base[k + 1])


def test_audio_history_causal_in_dual():
    params = dm.ModelParams(small_config(), np.random.default_rng(10))
    rng = np.random.default_rng(11)
    t = 5
    feats = rng.standard_normal((t, 5))
    motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
    base = dm.forward_dual(params, motion, 0, FeatureSequence(feats)).prediction.data.copy()
    bumped = feats.copy()
    bumped[2] += 1.0
    out = dm.forward_dual(params, motion, 0, FeatureSequence(bumped)).prediction.data
    assert np.array_equal(out[:3], base[:3])
    assert not np.allclose(out[3], base[3])


def test_single_frame_uses_start_token_only():
    params = dm.ModelParams(small_config(), np.random.default_rng(12))
    rng = np.random.default_rng(13)
    feats = FeatureSequence(rng.standard_normal((1, 5)))
    a = dm.forward_primal(params, feats, 0, MotionSequence(np.full((1, 6, 3), 0.3), 25.0))
    b = dm.forward_primal(params, feats, 0, MotionSequence(np.full((1, 6, 3), -0.9), 25.0))
    assert np.array_equal(a.prediction.data, b.prediction.data)


def test_generation_matches_teacher_forcing():
    for trial in range(5):
        params = dm.ModelParams(small_config(), np.random.default_rng(600 + trial))
        rng = np.random.default_rng(700 + trial)
        t = 9
        feats = FeatureSequence(rng.standard_normal((t, 5)))
        gen = dm.generate_motion(params, feats, trial % 3)
        assert gen.fps == 25.0
        tf = dm.forward_primal(params, feats, trial % 3, gen)
        assert_close(tf.prediction.data.reshape(t, 6, 3), gen.displacements, 1e-12, "primal consistency")
        motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
        gen_a = dm.generate_audio(params, motion, trial % 3)
        tf_a = dm.forward_dual(params, motion, trial % 3, gen_a)
        assert_close(tf_a.prediction.data, gen_a.values, 1e-12, "dual consistency")


def test_generation_matches_teacher_forcing_at_240_frames():
    t = 240
    params = dm.ModelParams(small_config(max_frames=t), np.random.default_rng(610))
    rng = np.random.default_rng(710)
    feats = FeatureSequence(rng.standard_normal((t, 5)))
    gen = dm.generate_motion(params, feats, 1)
    tf = dm.forward_primal(params, feats, 1, gen)
    assert_close(tf.prediction.data.reshape(t, 6, 3), gen.displacements, 1e-9, "primal consistency at T=240")
    motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
    gen_a = dm.generate_audio(params, motion, 2)
    tf_a = dm.forward_dual(params, motion, 2, gen_a)
    assert_close(tf_a.prediction.data, gen_a.values, 1e-9, "dual consistency at T=240")


def _heads(params, pattern, count):
    return [params[pattern.format(h=h)].data for h in range(count)]


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_stacked_heads_equal_the_per_head_reference_bit_for_bit(direction):
    """self_attend and cross_attend, which compute a block's heads as one
    stack, give the bytes of a per-head reference (2-D products per head,
    joined by np.concatenate in head order) at the default heads, both
    teacher-forced and decoding one row per call over a K/V cache."""
    params = dm.ModelParams(small_config(max_frames=60, d=32, fusion_heads=4, self_heads=4),
                            np.random.default_rng(660))
    d, rng = dm.DIRECTIONS[direction], np.random.default_rng(760)
    own = f"fusion.{direction}"
    self_w = [_heads(params, f"self_attn.{d.target}.h{{h}}.{p}", 4) for p in "qkv"]
    fusion_w = [_heads(params, f"fusion.{role}.h{{h}}", 4) for role in (f"qk_{d.source}", f"qk_{d.target}", f"{direction}.v")]
    ff = [params[f"{own}.{name}"].data for name in ("ff1.weight", "ff1.bias", "ff2.weight", "ff2.bias")]

    def reference(block, x_q, x_kv, cached=False):
        if block == "self":
            return oracles.per_head_attention(x_q, x_kv, *self_w, params[f"self_attn.{d.target}.out"].data, cached)
        return oracles.per_head_cross_attention(x_q, x_kv, *fusion_w, params[f"{own}.out"].data, *ff, cached)

    for t in (1, 2, 3, 60):
        x, kv = rng.standard_normal((t, 32)), rng.standard_normal((t, 32))
        assert dm.self_attend(params, dc.Tensor(x), direction).data.tobytes() == \
            reference("self", x, x).tobytes(), f"self_attend at T={t}"
        assert dm.cross_attend(params, dc.Tensor(x), dc.Tensor(kv), direction).data.tobytes() == \
            reference("fusion", x, kv).tobytes(), f"cross_attend at T={t}"
        self_cache, fusion_cache = dm.KVCache(t), dm.KVCache(t)
        for i in range(t):
            row, kv_row = dc.Tensor(x[i:i + 1]), dc.Tensor(kv[i:i + 1])
            assert dm.self_attend(params, row, direction, self_cache).data.tobytes() == \
                reference("self", x[i:i + 1], x[:i + 1], cached=True).tobytes(), f"cached self_attend row {i} of {t}"
            assert dm.cross_attend(params, row, kv_row, direction, fusion_cache).data.tobytes() == \
                reference("fusion", x[i:i + 1], kv[:i + 1], cached=True).tobytes(), f"cached cross_attend row {i} of {t}"


def _eager_generate(params, direction, source, speaker):
    """The per-frame decoding loop that runs the model code for every frame,
    with fresh caches: what generation computes, frame by frame."""
    d = dm.DIRECTIONS[direction]
    source_latent = dm._encoder(d.source)(params, source)
    frames = source_latent.data.shape[0]
    style = dm.style_embed(params, speaker)
    self_cache, fusion_cache = dm.KVCache(frames), dm.KVCache(frames)
    out, history, out_weight = [], params[f"start_token.{d.target}"], d.out_weight(params)
    for t in range(frames):
        ctx = dm.self_attend(params, history, d.name, self_cache)
        gated = dm.speaker_modulate(params, ctx, style, d.name)
        fused = dm.cross_attend(params, dc.Tensor._wrap(source_latent.data[t:t + 1]), gated, d.name, fusion_cache)
        pred = d.decode(params, fused, out_weight)
        out.append(pred.data)
        if t + 1 < frames:
            history = dm._encoder(d.target)(params, pred, start=t)
    return np.concatenate(out)


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_generation_equals_eager_decoding_bit_for_bit(tied):
    """Generation replays one traced frame for frames 2..T-1; its output is
    byte-identical to running the model code for every frame."""
    params = dm.ModelParams(small_config(max_frames=17, share_transpose_codec=tied), np.random.default_rng(640))
    rng = np.random.default_rng(740)
    for t in (1, 2, 3, 17):
        feats = FeatureSequence(rng.standard_normal((t, 5)))
        motion = MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)
        assert dm.generate_motion(params, feats, 1).displacements.tobytes() == \
            _eager_generate(params, "primal", feats, 1).tobytes(), f"primal at T={t}"
        assert dm.generate_audio(params, motion, 2).values.tobytes() == \
            _eager_generate(params, "dual", motion, 2).tobytes(), f"dual at T={t}"


def _decode_group(params, direction, sources, speakers):
    """A group's decode, and the same sources decoded one at a time."""
    d = dm.DIRECTIONS[direction]
    alone = [dm._generate(params, d, [source], [speaker])[0] for source, speaker in zip(sources, speakers)]
    return dm._generate(params, d, sources, speakers), alone


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_batched_generation_equals_one_at_a_time(tied):
    """Equal-length sequences with mixed speakers, decoded as one group
    (every frame after frame 1 replayed once over their stacks), are
    byte-identical to decoding each alone, in both directions, through
    generate_motions and generate_motion too."""
    params = dm.ModelParams(small_config(max_frames=60, share_transpose_codec=tied), np.random.default_rng(650))
    rng = np.random.default_rng(750)
    for t in (1, 2, 3, 60):
        for speakers in ([2, 0], [1, 2, 1]):
            feats = [FeatureSequence(rng.standard_normal((t, 5))) for _ in speakers]
            motions = [MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0) for _ in speakers]
            for direction, sources in (("primal", feats), ("dual", motions)):
                group, alone = _decode_group(params, direction, sources, speakers)
                assert [g.tobytes() for g in group] == [a.tobytes() for a in alone], f"{direction} at T={t}"
            got = dm.generate_motions(params, feats, speakers)
            assert [g.displacements.tobytes() for g in got] == \
                [dm.generate_motion(params, f, s).displacements.tobytes() for f, s in zip(feats, speakers)]


def test_generation_of_mixed_lengths_equals_one_at_a_time():
    """Interleaved lengths with mixed speakers, decoded in one call (one
    group per length), give each sequence's own output, in input order, in
    both directions."""
    params = dm.ModelParams(small_config(), np.random.default_rng(651))
    rng = np.random.default_rng(751)
    lengths, speakers = [7, 12, 7, 12, 7], [0, 2, 1, 0, 2]
    feats = [FeatureSequence(rng.standard_normal((t, 5))) for t in lengths]
    motions = [MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0) for t in lengths]
    for direction, sources in (("primal", feats), ("dual", motions)):
        group, alone = _decode_group(params, direction, sources, speakers)
        assert [g.shape[0] for g in group] == lengths
        assert [g.tobytes() for g in group] == [a.tobytes() for a in alone], direction
    got = dm.generate_motions(params, feats, speakers)
    assert [g.displacements.tobytes() for g in got] == \
        [dm.generate_motion(params, f, s).displacements.tobytes() for f, s in zip(feats, speakers)]


def test_generate_motions_checks_the_speaker_count():
    """One speaker per sequence: a shorter or longer list is refused before
    anything is decoded, and no sequences give no motions."""
    params = dm.ModelParams(small_config(), np.random.default_rng(653))
    feats = [FeatureSequence(np.zeros((t, 5))) for t in (4, 5)]
    for features, speakers in ((feats, [0]), (feats, [0, 1, 2]), (feats[:1], [0, 1])):
        with pytest.raises(ValueError, match=f"{len(speakers)} speakers for {len(features)} sequences"):
            dm.generate_motions(params, features, speakers)
    assert dm.generate_motions(params, [], []) == []


def _first_error(decode):
    with pytest.raises(dc.NonFiniteError) as raised:
        decode()
    return str(raised.value)


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_batched_overflow_raises_as_serial(direction):
    """A group whose decode fails raises the NonFiniteError that decoding
    its sequences one at a time, in order, raises first. With one
    overflowing sequence (row 3 of the second, read in a replayed frame)
    that is the layer norm that its frame 3 meets. With the first sequence
    overflowing at frame 3 and the second at its encoding, which a group
    reaches first, it is still the first sequence's error."""
    params = dm.ModelParams(small_config(), np.random.default_rng(652))
    width = {"primal": 5, "dual": 18}[direction]
    rng = np.random.default_rng(752)
    speakers = [0, 2, 1]

    def decoders(rows):
        sources = [dc.Tensor(r) for r in rows]
        d = dm.DIRECTIONS[direction]

        def serial():
            for source, speaker in zip(sources, speakers):
                dm._generate(params, d, [source], [speaker])

        return serial, lambda: dm._generate(params, d, sources, speakers)

    with np.errstate(all="ignore"):
        rows = [0.1 * rng.standard_normal((9, width)) for _ in speakers]
        rows[1][3] *= 1e200
        serial, group = decoders(rows)
        assert _first_error(group) == _first_error(serial)
        assert _first_error(serial).startswith("layer-normalize-per-row")
        rows[0][3] *= 1e200
        rows[1][4] = 1.5e308
        serial, group = decoders(rows)
        assert _first_error(group) == _first_error(serial)
        assert _first_error(serial).startswith("layer-normalize-per-row")
        assert _first_error(lambda: dm._generate(params, dm.DIRECTIONS[direction], [dc.Tensor(rows[1])], [2])) \
            .startswith("matmul")


def test_batched_generation_calls_per_frame_do_not_grow_with_batch(monkeypatch):
    """Each frame after frame 1 applies every record once for the whole
    group: the forward calls per frame are the same at B=1, 2 and 4."""
    params = dm.ModelParams(small_config(max_frames=16), np.random.default_rng(653))
    rng = np.random.default_rng(753)
    calls = [0]

    def counted(kind, arrays, attrs, out):
        calls[0] += 1

    _spy_forward_rules(monkeypatch, counted)
    for direction, width in (("primal", 5), ("dual", 18)):
        per_frame = []
        for batch in (1, 2, 4):
            counts = []
            for t in (6, 16):
                sources = [dc.Tensor(0.1 * rng.standard_normal((t, width))) for _ in range(batch)]
                calls[0] = 0
                dm._generate(params, dm.DIRECTIONS[direction], sources, [b % 3 for b in range(batch)])
                counts.append(calls[0])
            per_frame.append((counts[1] - counts[0]) / 10)
        assert per_frame[0] == per_frame[1] == per_frame[2] > 0, f"{direction}: calls per frame {per_frame}"


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_generation_rereads_the_caches_by_each_rule_alone(monkeypatch, direction):
    """Two rules keep a replayed frame reading its K/V caches as extended,
    and each is pinned here on its own. Generation declares every cache
    leaf to its Program; and a Program counts unplanned outputs as
    rebound, so generation stays bit-identical to eager decoding with the
    cache leaves withheld from the Program: every record that reads a cache
    leaf is unplanned (the logits) or reads an unplanned output (the
    weighted values read the softmax)."""
    params = dm.ModelParams(small_config(), np.random.default_rng(642))
    width = {"primal": 5, "dual": 18}[direction]
    source = dc.Tensor(0.1 * np.random.default_rng(742).standard_normal((6, width)))
    expect = _eager_generate(params, direction, source, 1).tobytes()
    caches, declared = [], []
    real_init, real_program = dm.KVCache.__init__, dc.Program

    def init(cache, *args):
        real_init(cache, *args)
        caches.append(cache)

    def withheld(records, leaves, *args):
        declared.append(leaves)
        cached = {leaf for cache in caches for leaf in cache.leaves}
        return real_program(records, [t for t in leaves if t not in cached], *args)

    monkeypatch.setattr(dm.KVCache, "__init__", init)
    monkeypatch.setattr(dc, "Program", withheld)
    generate = {"primal": dm.generate_motion, "dual": dm.generate_audio}[direction]
    got = generate(params, source, 1)
    assert len(caches) == 2 and len(declared) == 1
    assert all(leaf in declared[0] for cache in caches for leaf in cache.leaves)
    assert (got.displacements if direction == "primal" else got.values).tobytes() == expect


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_replayed_frame_overflow_raises_as_eager(direction):
    """Positional row 2 is read by no frame before frame 2 (the source row
    of frame 2; history rows sit one position back). Scaled to 1e200 it
    overflows in frame 2, a replayed frame, which raises the eager loop's
    NonFiniteError, naming the same primitive."""
    params = dm.ModelParams(small_config(), np.random.default_rng(641))
    params["positional_table"].data[2] *= 1e200
    generate, width = {"primal": (dm.generate_motion, 5), "dual": (dm.generate_audio, 18)}[direction]
    for t in (3, 9):
        rows = 0.1 * np.random.default_rng(741 + t).standard_normal((t, width))
        with np.errstate(over="ignore"):
            _eager_generate(params, direction, dc.Tensor(rows[:2]), 0)  # frames 0 and 1 stay finite
            with pytest.raises(dc.NonFiniteError) as eager:
                _eager_generate(params, direction, dc.Tensor(rows), 0)
            with pytest.raises(dc.NonFiniteError) as replayed:
                generate(params, dc.Tensor(rows), 0)
        assert str(replayed.value) == str(eager.value)
        assert str(eager.value).startswith("layer-normalize-per-row")


def test_generation_work_per_frame_is_flat(monkeypatch):
    """Rows output by primitives for each frame beyond the first are the
    same at T=30 and T=120: no frame re-runs the prefix before it."""
    params = dm.ModelParams(small_config(max_frames=120), np.random.default_rng(620))
    rng = np.random.default_rng(720)
    rows = [0]

    def counted(kind, arrays, attrs, out):
        rows[0] += out.shape[0]

    _spy_forward_rules(monkeypatch, counted)

    def rows_for(generate, source):
        rows[0] = 0
        generate(params, source, 0)
        return rows[0]

    for generate, make in (
        (dm.generate_motion, lambda t: FeatureSequence(rng.standard_normal((t, 5)))),
        (dm.generate_audio, lambda t: MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0)),
    ):
        # The baseline is T=2: a one-row source needs no broadcast, so T=1
        # differs from longer sources by more than its frames.
        two = rows_for(generate, make(2))
        per_frame = [(rows_for(generate, make(t)) - two) / (t - 2) for t in (30, 120)]
        assert per_frame[0] == per_frame[1] > 0, f"{generate.__name__}: rows per frame {per_frame}"


def test_record_counts_at_the_default_config(monkeypatch):
    """At the default widths and heads each attention block runs its heads
    as one stack: a traced training step has at most 250 records, and a
    replayed generated frame at most 45 (48 in the dual direction, whose
    decoder has a hidden layer), with 2 cache extends, one per block."""
    from dualface import train as dt

    cfg = dm.ModelConfig(audio_dim=32, vertex_count=120, n_speakers=8, max_frames=60)
    params = dm.ModelParams(cfg, np.random.default_rng(670))
    rng = np.random.default_rng(770)
    feats = FeatureSequence(rng.standard_normal((60, 32)))
    motion = MotionSequence(0.1 * rng.standard_normal((60, 120, 3)), 25.0)
    train_cfg = dt.TrainConfig()
    assert len(dt._StepProgram(params, 1, dt.step_arrays(feats, motion, train_cfg), train_cfg).tape.records) <= 250
    programs, extends = [], [0]
    real_program, real_extend = dc.Program, dm.KVCache.extend

    def program(*args):
        programs.append(real_program(*args))
        return programs[-1]

    def extend(cache, k, v):
        extends[0] += 1
        return real_extend(cache, k, v)

    monkeypatch.setattr(dc, "Program", program)
    monkeypatch.setattr(dm.KVCache, "extend", extend)
    for generate, source, most in ((dm.generate_motion, lambda t: FeatureSequence(feats.values[:t]), 45),
                                   (dm.generate_audio, lambda t: MotionSequence(motion.displacements[:t], 25.0), 48)):
        counts = []
        for t in (6, 7):
            extends[0] = 0
            generate(params, source(t), 0)
            counts.append(extends[0])
        records = sum(len(steps) for steps, _, _ in programs[-1].segments)
        assert records <= most and counts[1] - counts[0] == 2, (generate.__name__, records, counts)


def test_kv_cache_hands_out_keys_transposed():
    """After each extend with one (..., 1, dk) row per head, a block's cache
    (fusion's (H, ...), self-attention's (H, 1, ...)) hands out
    transpose-last-two of the rows stored so far, bit for bit and
    C-contiguous, and those rows as its values; so cached attention
    evaluates no transpose of its own."""
    rng = np.random.default_rng(622)
    for heads in ((4,), (4, 1)):
        cache, keys, values = dm.KVCache(6), [], []
        for _ in range(6):
            k, v = (dc.Tensor(rng.standard_normal((*heads, 1, 3))) for _ in range(2))
            keys.append(k.data)
            values.append(v.data)
            keys_t, cached = cache.extend(k, v)
            expect = dc.transpose_last_two(dc.Tensor(np.concatenate(keys, -2)))
            assert keys_t.data.flags.c_contiguous and keys_t.shape == expect.shape
            assert keys_t.data.tobytes() == expect.data.tobytes()
            assert np.array_equal(cached.data, np.concatenate(values, -2))


def test_generation_broadcasts_no_row_to_one_row(monkeypatch):
    """Decoding one row per frame adds each bias and style row as it is:
    no broadcast-row primitive with rows=1 is evaluated."""
    params = dm.ModelParams(small_config(), np.random.default_rng(621))
    rng = np.random.default_rng(721)
    one_row = []

    def counted(kind, arrays, attrs, out):
        if kind is dc.PrimitiveKind.BROADCAST_ROW and attrs["rows"] == 1:
            one_row.append(kind)

    _spy_forward_rules(monkeypatch, counted)
    for t in (1, 5):
        dm.generate_motion(params, FeatureSequence(rng.standard_normal((t, 5))), 0)
        dm.generate_audio(params, MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0), 1)
    assert one_row == []


def test_tied_generation_transposes_each_weight_once(monkeypatch):
    """With a tied codec, generation transposes the encoder weight once per
    call, not once per decoded frame: the count is the same at T=3 and T=12."""
    params = dm.ModelParams(small_config(share_transpose_codec=True), np.random.default_rng(623))
    rng = np.random.default_rng(723)
    transposes = []

    def counted(kind, arrays, attrs, out):
        if kind is dc.PrimitiveKind.TRANSPOSE_LAST_TWO:
            transposes.append(arrays[0])

    _spy_forward_rules(monkeypatch, counted)
    for generate, make, encoder in (
        (dm.generate_motion, lambda t: FeatureSequence(rng.standard_normal((t, 5))), "motion_encoder.weight"),
        (dm.generate_audio, lambda t: MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0), "audio_encoder.weight"),
    ):
        for t in (3, 12):
            transposes.clear()
            generate(params, make(t), 0)
            assert len(transposes) == 1 and transposes[0] is params[encoder].data, f"{generate.__name__} at T={t}"


def test_speaker_conditioning_changes_output():
    params = dm.ModelParams(small_config(), np.random.default_rng(14))
    feats = FeatureSequence(np.random.default_rng(15).standard_normal((4, 5)))
    a = dm.generate_motion(params, feats, 0)
    b = dm.generate_motion(params, feats, 1)
    assert not np.allclose(a.displacements, b.displacements)


@pytest.mark.parametrize("t", [1, 2, 5])
def test_shifted_history_is_exact(t):
    rng = np.random.default_rng(16)
    params = dm.ModelParams(small_config(), rng)
    encoded = dc.Tensor(rng.standard_normal((t, params.config.d)))
    start = params["start_token.motion"].data
    out = dm._shifted_history(params, encoded, "start_token.motion")
    assert np.array_equal(out.data, np.vstack([start, encoded.data[:-1]]))


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_config()
    params = dm.ModelParams(cfg, np.random.default_rng(17))
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params)
    back = dm.load_checkpoint(path)
    assert back.config == cfg
    for (name, p), (bname, bp) in zip(params.named_parameters(), back.named_parameters()):
        assert name == bname
        assert np.array_equal(p.value.data, bp.value.data), name
    # behavioral identity
    feats = FeatureSequence(np.random.default_rng(18).standard_normal((4, 5)))
    a = dm.generate_motion(params, feats, 0)
    b = dm.generate_motion(back, feats, 0)
    assert np.array_equal(a.displacements, b.displacements)


def _assert_flat_store(params):
    """Every value and gradient is a C-contiguous view into the store's two
    buffers, in layout order, with nothing between or after them."""
    offset = 0
    names = [name for name, _, _ in dm._layout(params.config)]
    assert [name for name, _ in params.named_parameters()] == names
    for name, p in params.named_parameters():
        for view, flat in ((p.value.data, params.values), (p.gradient, params.gradients)):
            assert view.flags.c_contiguous and view.dtype == np.float64, name
            assert view.base is flat, name
            start = (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // 8
            assert start == offset, name
        offset += p.value.data.size
    assert offset == params.values.size == params.gradients.size


@pytest.mark.parametrize("tied", [False, True])
def test_parameters_are_views_into_one_flat_store(tmp_path, tied):
    cfg = small_config(share_transpose_codec=tied)
    params = dm.ModelParams(cfg, np.random.default_rng(22))
    _assert_flat_store(params)
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params)
    back = dm.load_checkpoint(path)
    _assert_flat_store(back)
    assert np.array_equal(back.values, params.values)
    assert not back.gradients.any()
    # a write through a parameter's value, as the gradient checker's
    # perturbation makes, is a write into the buffer
    for store in (params, back):
        name, p = store.named_parameters()[3]
        p.value.data[0, 0] = 123.5
        assert store.views(store.values)[name][0, 0] == 123.5
        p.gradient[...] = 1.0
        assert store.views(store.gradients)[name].all()
        store.zero_gradients()
        assert not store.gradients.any()
        for stack, _, _ in _stack_members(store):
            assert stack.id not in dict(store.named_parameters())
            assert stack.data.base is store.values and stack.gradient.base is store.gradients


def _stack_members(params):
    """Each block's stack of per-head weights with, per member, its index
    in the stack and the registered parameter of that name."""
    for name, _, shape in dm._head_stacks(params.config):
        stack = params[name]
        assert stack.shape == shape
        for index in np.ndindex(shape[:-2]):
            proj = "qkv"[index[1]] if len(index) > 1 else ""
            yield stack, index, params[name.replace("h*", f"h{index[0]}").replace("qkv", proj)]


@pytest.mark.parametrize("tied", [False, True])
def test_head_stacks_view_their_members(tied, monkeypatch):
    """A stack's value and gradient are the stretch of the flat buffers that
    its per-head members view, in head order; after a training step's
    backward pass each member's gradient is its slice of the stack's, and
    after its Adam update each member's value is its slice of the stack's."""
    from dualface import train as dt
    from dualface.data import SequenceRecord

    params = dm.ModelParams(small_config(share_transpose_codec=tied), np.random.default_rng(24))
    for stack, index, member in _stack_members(params):
        assert np.shares_memory(member.data, stack.data) and np.shares_memory(member.gradient, stack.gradient)
        assert member.data.ctypes.data == stack.data[index].ctypes.data, member.id
        assert member.gradient.ctypes.data == stack.gradient[index].ctypes.data, member.id
    checked, real = [], dt.adam_step

    def adam_step(store, state, cfg):
        for stack, index, member in _stack_members(store):
            assert member.gradient.tobytes() == stack.gradient[index].tobytes() and member.gradient.any(), member.id
            checked.append(member.id)
        real(store, state, cfg)

    monkeypatch.setattr(dt, "adam_step", adam_step)
    rng = np.random.default_rng(25)
    seq = SequenceRecord(1, FeatureSequence(rng.standard_normal((4, 5))),
                         MotionSequence(0.1 * rng.standard_normal((4, 6, 3)), 25.0), "train", "seq")
    before = params.values.copy()
    dt.train_step(params, seq, dt.TrainConfig(), dt.TrainState())
    assert len(checked) == 2 * 2 * 3 + 4 * 2 and not np.array_equal(params.values, before)
    for stack, index, member in _stack_members(params):
        assert member.data.tobytes() == stack.data[index].tobytes()


def test_store_is_freed_without_the_cycle_collector(tmp_path):
    """A parameter is its own value tensor and holds no cycle, so dropping the last
    reference to a store frees its values at once, cycle collector or not."""
    dm.save_checkpoint(tmp_path / "model.ckpt", dm.ModelParams(small_config(), np.random.default_rng(23)))
    gc.disable()
    try:
        for make in (lambda: dm.ModelParams(small_config(), np.random.default_rng(23)),
                     lambda: dm.load_checkpoint(tmp_path / "model.ckpt")):
            store = make()
            ref = weakref.ref(store["style_table"].value.data)
            del store
            assert ref() is None
    finally:
        gc.enable()


def test_checkpoint_rejects_corruption(tmp_path):
    from dualface.data import BadMagicError, FileFormatError, TruncatedFileError

    params = dm.ModelParams(small_config(), np.random.default_rng(20))
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params)
    raw = path.read_bytes()

    bad = bytearray(raw)
    bad[:4] = b"NOPE"
    path.write_bytes(bytes(bad))
    with pytest.raises(BadMagicError):
        dm.load_checkpoint(path)

    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFileError):
        dm.load_checkpoint(path)

    path.write_bytes(raw + b"\x00")
    with pytest.raises(FileFormatError):
        dm.load_checkpoint(path)

    # tamper with a stored parameter name
    idx = raw.index(b"style_table")
    bad = bytearray(raw)
    bad[idx : idx + 5] = b"spyle"[:5]
    path.write_bytes(bytes(bad))
    with pytest.raises(FileFormatError):
        dm.load_checkpoint(path)


def test_checkpoint_rejects_nonfinite_values(tmp_path):
    from dualface.data import FileFormatError

    # save_checkpoint refuses non-finite values, so the bad value is written
    # into the bytes of a valid file
    params = dm.ModelParams(small_config(), np.random.default_rng(22))
    marker = 12345.678
    params["fusion.primal.out"].value.data[1, 2] = marker
    path = tmp_path / "bad.ckpt"
    dm.save_checkpoint(path, params)
    raw = path.read_bytes()
    assert raw.count(struct.pack("<d", marker)) == 1
    for bad in (np.nan, np.inf):
        path.write_bytes(raw.replace(struct.pack("<d", marker), struct.pack("<d", bad)))
        with pytest.raises(FileFormatError, match="fusion.primal.out"):
            dm.load_checkpoint(path)


def test_save_checkpoint_rejects_nonfinite_values(tmp_path):
    path = tmp_path / "model.ckpt"
    good = dm.ModelParams(small_config(), np.random.default_rng(23))
    dm.save_checkpoint(path, good)
    raw = path.read_bytes()
    for bad in (np.nan, np.inf):
        params = dm.ModelParams(small_config(), np.random.default_rng(23))
        params["fusion.primal.out"].value.data[1, 2] = bad
        with pytest.raises(ValueError, match="fusion.primal.out"):
            dm.save_checkpoint(path, params)
        assert path.read_bytes() == raw  # the earlier checkpoint is left intact


def test_checkpoint_roundtrip_with_tied_codec(tmp_path):
    cfg = small_config(share_transpose_codec=True)
    params = dm.ModelParams(cfg, np.random.default_rng(21))
    path = tmp_path / "tied.ckpt"
    dm.save_checkpoint(path, params)
    back = dm.load_checkpoint(path)
    assert back.config.share_transpose_codec
    assert np.array_equal(
        back.motion_decoder_weight().data, back["motion_encoder.weight"].value.data.T
    )
