import json
from dataclasses import FrozenInstanceError, asdict, replace
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

from dualface import model as dm
from dualface import train as dt
from dualface.data import FeatureSequence, MotionSequence, SequenceRecord, SyntheticSpec, generate_synthetic, load_dataset
from dualface.diffcore import NonFiniteError
from dualface.losses import CCRLConfig, LossWeights
from dualface.metrics import RegionSet, SequenceMetrics, build_report, fdd, lip_vertex_error
from dualface.model import ModelConfig, ModelParams, forward_primal, generate_motion, load_checkpoint

import oracles
from oracles import assert_close


def tiny_dataset(tmp_path, seed=0, frames=12, n_sequences=8):
    spec = SyntheticSpec(
        n_speakers=2, n_sequences=n_sequences, frames=frames, vertex_count=24,
        bands=6, seed=seed,
    )
    generate_synthetic(spec, tmp_path)
    return load_dataset(tmp_path / "manifest.json")


def tiny_model(ds, **overrides):
    base = dict(
        d=16, audio_dim=ds.audio_dim, vertex_count=ds.template.vertex_count,
        n_speakers=ds.manifest.speakers, max_frames=ds.max_frames,
        fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=24,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_train_config_validation():
    with pytest.raises(ValueError):
        dt.TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        dt.TrainConfig(beta1=1.0).validate()
    with pytest.raises(ValueError):
        dt.TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        dt.TrainConfig(grad_clip=0.0).validate()
    with pytest.raises(TypeError):
        dt.TrainConfig(val_every=True).validate()
    with pytest.raises(TypeError):
        dt.TrainConfig(epochs=2.0).validate()
    with pytest.raises(TypeError):
        dt.TrainConfig(learning_rate=True).validate()
    with pytest.raises(TypeError):
        dt.TrainConfig(weights=LossWeights(ccrl=True)).validate()
    with pytest.raises(TypeError):
        dt.TrainConfig(ccrl=CCRLConfig(sigma=True)).validate()
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dt.TrainConfig(weights=LossWeights(dual=bad)).validate()
    dt.TrainConfig(learning_rate=1, grad_clip=2, weights=LossWeights(primal=1, dual=0), ccrl=CCRLConfig(sigma=1)).validate()
    dt.TrainConfig().validate()


# Two (1, 2) parameters of a real store; adam_step leaves every other
# parameter, whose gradient stays 0, as it is.
A, B = "speaker_gate.motion.fc1.bias", "speaker_gate.audio.fc1.bias"


def _store(values):
    """The parameter store at a size where A and B hold two values each,
    with the given values written in."""
    cfg = ModelConfig(audio_dim=2, vertex_count=1, n_speakers=1, max_frames=2, d=4,
                      fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=2)
    params = ModelParams(cfg, np.random.default_rng(0))
    for name, v in values.items():
        params[name].value.data[...] = v
    return params


def _moment(params, state, name, which=0):
    return params.views(state.moments[which])[name]


def test_adam_step_matches_hand_formula():
    cfg = dt.TrainConfig(learning_rate=0.01)
    params = _store({A: [[1.0, -2.0]]})
    param = params[A]
    grad = np.array([[0.3, -0.7]])
    param.gradient[:] = grad
    state = dt.TrainState()
    dt.adam_step(params, state, cfg)  # advances to step 1 itself
    m = 0.1 * grad
    v = 0.001 * grad * grad
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    expect = np.array([[1.0, -2.0]]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert_close(param.value.data, expect, 1e-14, "adam")
    assert not np.any(param.gradient)  # cleared after the step


def test_grad_clip_rescales_to_threshold():
    cfg = dt.TrainConfig(grad_clip=1.0)
    params = _store({A: np.zeros((1, 2)), B: np.zeros((1, 2))})
    params[A].gradient[:] = [[3.0, 0.0]]
    params[B].gradient[:] = [[0.0, 4.0]]
    state = dt.TrainState()
    # global norm is 5; after clipping the first moment sees gradients / 5
    dt.adam_step(params, state, cfg)
    assert_close(_moment(params, state, A), 0.1 * np.array([[0.6, 0.0]]), 1e-14, "clipped m")
    assert_close(_moment(params, state, B), 0.1 * np.array([[0.0, 0.8]]), 1e-14, "clipped m")


@pytest.mark.parametrize("grad_clip", [None, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_rejects_nonfinite_gradient(grad_clip, bad):
    """A non-finite gradient raises before any parameter or moment is written."""
    cfg = dt.TrainConfig(learning_rate=0.01, grad_clip=grad_clip)
    params = _store({A: [[1.0, -2.0]], B: [[0.5, 0.25]]})
    p1, p2 = params[A], params[B]
    state = dt.TrainState()
    p1.gradient[:] = [[0.3, -0.7]]
    p2.gradient[:] = [[0.1, 0.2]]
    dt.adam_step(params, state, cfg)
    values = [p.value.data.copy() for p in (p1, p2)]
    moments = state.moments.copy()
    p1.gradient[:] = [[0.3, -0.7]]
    p2.gradient[:] = [[0.1, bad]]
    with pytest.raises(dt.NonFiniteLossError) as exc:
        dt.adam_step(params, state, cfg)
    assert exc.value.term == f"gradient of {B}" and exc.value.step == 2
    assert state.step == 1
    for p, before in zip((p1, p2), values):
        assert np.array_equal(p.value.data, before)
    for name in params.views(moments[0]):
        for which in (0, 1):
            assert np.array_equal(_moment(params, state, name, which), params.views(moments[which])[name])


def test_adam_accepts_finite_gradient_whose_square_overflows():
    """A gradient whose sum of squares overflows is still clipped to norm
    grad_clip, not zeroed by an infinite norm."""
    cfg = dt.TrainConfig(grad_clip=1.0)
    params = _store({A: np.zeros((1, 2))})
    p = params[A]
    p.gradient[:] = [[1e200, 0.0]]
    state = dt.TrainState()
    with np.errstate(over="ignore"):
        dt.adam_step(params, state, cfg)
    assert np.isfinite(p.value.data).all()
    assert_close(_moment(params, state, A), 0.1 * np.array([[1.0, 0.0]]), 1e-14, "clipped m")


def test_adam_rejects_update_that_leaves_nonfinite_value():
    """An update that overflows raises, naming the parameter, and leaves
    that parameter as it was."""
    top = np.finfo(np.float64).max
    params = _store({A: [[top, 0.0]]})
    p = params[A]
    p.gradient[:] = [[-1.0, 0.5]]
    with np.errstate(over="ignore"), pytest.raises(dt.NonFiniteLossError) as exc:
        dt.adam_step(params, dt.TrainState(), dt.TrainConfig(learning_rate=1e300))
    assert exc.value.term == f"update of {A}" and exc.value.step == 1
    assert np.array_equal(p.value.data, [[top, 0.0]])


def test_failing_update_writes_no_parameter():
    """When one parameter's update overflows, the parameters before it in
    registration order, whose updates are finite, are not written either."""
    top = np.finfo(np.float64).max
    params = _store({A: [[1.0, -2.0]], B: [[top, 0.0]]})
    params[A].gradient[:] = [[0.3, -0.7]]
    params[B].gradient[:] = [[-1.0, 0.5]]
    before = params.values.copy()
    with np.errstate(over="ignore"), pytest.raises(dt.NonFiniteLossError) as exc:
        dt.adam_step(params, dt.TrainState(), dt.TrainConfig(learning_rate=1e300))
    assert exc.value.term == f"update of {B}"
    assert np.array_equal(params.values, before)


@pytest.mark.parametrize("grad_clip", [None, 50.0])
def test_flat_adam_equals_per_parameter_adam(grad_clip):
    """At the default scale, 60 steps of random gradients give bit-identical
    values and moments to the per-parameter oracle, with and without a clip
    that fires (the random gradients' norm is about 246)."""
    cfg_model = ModelConfig(audio_dim=32, vertex_count=120, n_speakers=8, max_frames=60)
    cfg = dt.TrainConfig(learning_rate=1e-3, grad_clip=grad_clip)
    flat, ref = (ModelParams(cfg_model, np.random.default_rng(8)) for _ in range(2))
    assert flat.values.size == 60_720
    state, ref_state = dt.TrainState(), SimpleNamespace(step=0, moments={})
    rng = np.random.default_rng(9)
    for _ in range(60):
        grads = rng.standard_normal(flat.gradients.size)
        if grad_clip is not None:
            assert np.sqrt(np.dot(grads, grads)) > grad_clip
        flat.gradients[...] = grads
        for (_, p), g in zip(ref.named_parameters(), ref.views(grads).values()):
            p.gradient[...] = g
        dt.adam_step(flat, state, cfg)
        oracles.adam_step(ref, ref_state, cfg)
    assert state.step == ref_state.step == 60
    assert np.array_equal(flat.values, ref.values)
    for name, (m, v) in ref_state.moments.items():
        assert np.array_equal(_moment(flat, state, name, 0), m), name
        assert np.array_equal(_moment(flat, state, name, 1), v), name


def test_gradient_check_builds_the_graph_that_trains():
    """gradcheck's "full model + all losses" build records the primitives,
    attributes and parameters, in order, of a traced training step of the
    same small model on step_arrays of the same shapes with unit weights."""
    from dualface import diffcore as dc
    from dualface import verify

    build = dict(verify._full_checks(np.random.default_rng(1234)))["full model + all losses"]
    with dc.Tape() as checked:
        build()
    rng = np.random.default_rng(0)
    params = verify._small_model(rng)
    feats = FeatureSequence(rng.standard_normal((3, params.config.audio_dim)))
    motion = MotionSequence(0.1 * rng.standard_normal((3, params.config.vertex_count, 3)), 25.0)
    cfg = dt.TrainConfig(weights=LossWeights(1.0, 1.0, 1.0, 1.0))
    program = dt._StepProgram(params, 1, dt.step_arrays(feats, motion, cfg), cfg)

    def layout(records):
        return [(r.kind, r.attrs, [x.id if isinstance(x, dc.Parameter) else None for x in r.inputs])
                for r in records]

    assert layout(program.tape.records) == layout(checked.records)
    assert {r.kind for r in checked.records} >= {dc.PrimitiveKind.SOFTMAX_ROWS, dc.PrimitiveKind.EXP}
    read = dict.fromkeys(x for r in checked.records for x in r.inputs if isinstance(x, dc.Parameter))
    assert sum(p.data.size for p in read) == params.values.size  # every value, a block's heads through their stack


def test_one_motion_kernel_per_sequence_per_train_call(tmp_path, monkeypatch):
    """train builds one CCRL motion kernel per training sequence, however
    many epochs it runs, all of them before its first step, and none when
    CCRL or the dual pass is off; a bare train_step builds the one its two
    CCRL directions share."""
    from dualface import losses

    ds = tiny_dataset(tmp_path / "data")
    n_train = len(ds.split("train"))
    events = []
    kernel, step = losses.motion_kernel, dt.train_step

    def counting_kernel(*args, **kwargs):
        events.append("kernel")
        return kernel(*args, **kwargs)

    def counting_step(*args, **kwargs):
        events.append("step")
        return step(*args, **kwargs)

    monkeypatch.setattr(losses, "motion_kernel", counting_kernel)
    monkeypatch.setattr(dt, "train_step", counting_step)
    for run in ("a", "b"):
        events.clear()
        dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=2, seed=0), tmp_path / run)
        assert events == ["kernel"] * n_train + ["step"] * (2 * n_train)
    for weights in (LossWeights(ccrl=0.0), LossWeights(dual=0.0, dr=0.0, ccrl=0.0)):
        events.clear()
        dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=2, seed=0, weights=weights), tmp_path / "c")
        assert events == ["step"] * (2 * n_train)
    seq = ds.split("train")[0]
    for ccrl, want in ((LossWeights().ccrl, 1), (0.0, 0)):
        events.clear()
        cfg = dt.TrainConfig(weights=LossWeights(ccrl=ccrl))
        params = ModelParams(tiny_model(ds), np.random.default_rng(0))
        step(params, seq, cfg, dt.TrainState())
        assert events.count("kernel") == want


def test_training_reduces_primal_loss(tmp_path):
    ds = tiny_dataset(tmp_path)
    res = dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=80, seed=1, val_every=20), tmp_path / "run")
    lines = [json.loads(l) for l in Path(res.log_path).read_text().splitlines()]
    assert len(lines) == res.state.step
    first = np.mean([l["l_primal"] for l in lines[:6]])
    last = np.mean([l["l_primal"] for l in lines[-6:]])
    assert last < 0.2 * first, (first, last)
    assert {"step", "l_primal", "l_dual", "l_dr", "l_ccrl", "total"} == set(lines[0])
    assert [l["step"] for l in lines] == list(range(1, len(lines) + 1))


def test_best_checkpoint_tracks_validation(tmp_path):
    ds = tiny_dataset(tmp_path)
    res = dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=6, seed=2, val_every=2), tmp_path / "run")
    assert Path(res.checkpoint).name == "best.ckpt"
    params = load_checkpoint(res.checkpoint)
    report = dt.evaluate_params(params, ds, "val")
    assert_close(report.lve, res.state.best_val_lve, 1e-12, "best lve reproducible")


def test_no_val_split_checkpoints_final_parameters(tmp_path, monkeypatch):
    """Without val entries nothing is validated: best_val_lve stays inf and
    best.ckpt holds the parameters the last step left."""
    generate_synthetic(SyntheticSpec(n_speakers=2, n_sequences=6, frames=8, vertex_count=24, bands=6), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for entry in manifest["entries"]:
        entry["split"] = "test" if entry["split"] == "val" else entry["split"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    ds = load_dataset(tmp_path / "manifest.json")
    assert not ds.split("val")
    stores, real_step = [], dt.train_step

    def spy(params, *args):
        stores.append(params)
        return real_step(params, *args)

    monkeypatch.setattr(dt, "train_step", spy)
    res = dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=2, seed=6), tmp_path / "run")
    assert res.state.best_val_lve == float("inf")
    assert Path(res.checkpoint) == tmp_path / "run" / "best.ckpt"
    assert np.array_equal(load_checkpoint(res.checkpoint).values, stores[-1].values)
    assert res.state.step == len(stores) == 2 * len(ds.split("train"))


def test_evaluate_groups_lengths_as_a_per_sequence_loop(tmp_path, monkeypatch):
    """A split of two lengths, interleaved, is decoded in two groups, one
    per length, and its report is byte-equal to that of generating each
    sequence alone, in split order."""
    ds = tiny_dataset(tmp_path)
    rng = np.random.default_rng(31)
    lengths = [(7, 0), (12, 1), (7, 1), (12, 0), (7, 1)]
    rows = [SequenceRecord(speaker, FeatureSequence(rng.standard_normal((frames, ds.audio_dim))),
                           MotionSequence(0.1 * rng.standard_normal((frames, 24, 3)), 25.0), "val", f"mixed{i}")
            for i, (frames, speaker) in enumerate(lengths)]
    ds = replace(ds, sequences=ds.split("train") + rows)
    params = ModelParams(tiny_model(ds), np.random.default_rng(32))
    lips, upper = RegionSet("lips", ds.manifest.lip_indices), RegionSet("upper", ds.manifest.upper_indices)
    expect = build_report([
        SequenceMetrics(seq.name, lip_vertex_error(pred, seq.motion, lips), fdd(pred, seq.motion, upper))
        for seq in rows for pred in [generate_motion(params, seq.features, seq.speaker, seq.motion.fps)]])
    groups, real = [], dm._decode

    def spy(params, d, rows, speakers):
        groups.append([r.shape[0] for r in rows])
        return real(params, d, rows, speakers)

    monkeypatch.setattr(dm, "_decode", spy)
    assert dt.evaluate_params(params, ds, "val").to_json() == expect.to_json()
    assert groups == [[7, 7, 7], [12, 12]]


def test_evaluate_raises_the_error_of_a_per_sequence_loop(tmp_path):
    """On a split of two lengths whose second sequence overflows in a
    replayed frame and whose third, decoded in the first group, overflows
    at its encoding, evaluate_params raises what generating each sequence
    alone, in split order, raises first: the second sequence's error."""
    ds = tiny_dataset(tmp_path)
    rng = np.random.default_rng(33)
    features = [0.1 * rng.standard_normal((frames, ds.audio_dim)) for frames in (7, 5, 7)]
    features[1][3] *= 1e200
    features[2][4] = 1.5e308
    rows = [SequenceRecord(0, FeatureSequence(f), MotionSequence(0.1 * rng.standard_normal((len(f), 24, 3)), 25.0),
                           "val", f"failing{i}") for i, f in enumerate(features)]
    ds = replace(ds, sequences=ds.split("train") + rows)
    params = ModelParams(tiny_model(ds), np.random.default_rng(34))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError) as serial:
            for seq in rows:
                generate_motion(params, seq.features, seq.speaker)
        with pytest.raises(NonFiniteError) as grouped:
            dt.evaluate_params(params, ds, "val")
    assert str(grouped.value) == str(serial.value)
    assert str(serial.value).startswith("layer-normalize-per-row")


def test_evaluate_predict_gt_is_zero(tmp_path):
    ds = tiny_dataset(tmp_path)
    params = ModelParams(tiny_model(ds), np.random.default_rng(0))
    report = dt.evaluate_params(params, ds, "test", predict_gt=True)
    assert report.lve == 0.0
    assert report.fdd == 0.0


def test_disable_dual_freezes_dual_only_parameters(tmp_path):
    ds = tiny_dataset(tmp_path)
    cfg = dt.TrainConfig(epochs=2, seed=3, weights=LossWeights(dual=0.0, dr=0.0, ccrl=0.0))
    model_cfg = tiny_model(ds)
    res = dt.train(ds, model_cfg, cfg, tmp_path / "run")
    params = load_checkpoint(res.checkpoint)
    fresh = ModelParams(model_cfg, np.random.default_rng(cfg.seed))
    # the audio decoder only receives gradient through the dual task
    assert np.array_equal(
        params["audio_decoder.out.weight"].value.data,
        fresh["audio_decoder.out.weight"].value.data,
    )
    assert not np.array_equal(
        params["motion_decoder.weight"].value.data,
        fresh["motion_decoder.weight"].value.data,
    )
    lines = [json.loads(l) for l in Path(res.log_path).read_text().splitlines()]
    assert all(l["l_dual"] == 0.0 and l["l_ccrl"] == 0.0 for l in lines)


def test_train_determinism(tmp_path):
    ds = tiny_dataset(tmp_path)
    cfg = dt.TrainConfig(epochs=3, seed=4)
    r1 = dt.train(ds, tiny_model(ds), cfg, tmp_path / "a")
    r2 = dt.train(ds, tiny_model(ds), cfg, tmp_path / "b")
    assert Path(r1.log_path).read_bytes() == Path(r2.log_path).read_bytes()
    assert dt.file_sha256(r1.checkpoint) == dt.file_sha256(r2.checkpoint)
    r3 = dt.train(ds, tiny_model(ds), dt.TrainConfig(epochs=3, seed=5), tmp_path / "c")
    assert Path(r1.log_path).read_bytes() != Path(r3.log_path).read_bytes()


def test_nonfinite_training_aborts_with_term_name(tmp_path):
    """A poisoned parameter must abort the step loudly, never log NaNs."""
    ds = tiny_dataset(tmp_path)
    cfg = dt.TrainConfig(epochs=1, seed=6)
    params = ModelParams(tiny_model(ds), np.random.default_rng(0))
    params["audio_encoder.weight"].value.data[0, 0] = 1e308
    state = dt.TrainState()
    with pytest.raises(dt.NonFiniteLossError) as exc:
        dt.train_step(params, ds.split("train")[0], cfg, state)
    assert "forward pass" in str(exc.value)
    assert "grad_clip" in str(exc.value)


def test_nan_written_into_parameter_rejected_by_forward(tmp_path):
    """Inputs are not rechecked, but a NaN written straight into a parameter
    still reaches a primitive output that is."""
    ds = tiny_dataset(tmp_path)
    seq = ds.split("train")[0]
    params = ModelParams(tiny_model(ds), np.random.default_rng(0))
    params["audio_encoder.weight"].value.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        forward_primal(params, seq.features, seq.speaker, seq.motion)


def test_nonfinite_first_step_numbered_as_logged(tmp_path):
    """The first step is step 1 in train_log.jsonl, and a run that already
    clips is not advised to enable clipping."""
    ds = tiny_dataset(tmp_path)
    params = ModelParams(tiny_model(ds), np.random.default_rng(0))
    params["audio_encoder.weight"].value.data[0, 0] = 1e308
    with pytest.raises(dt.NonFiniteLossError) as exc:
        dt.train_step(params, ds.split("train")[0], dt.TrainConfig(grad_clip=1.0), dt.TrainState())
    assert exc.value.step == 1 and "at step 1;" in str(exc.value)
    assert "grad_clip" not in str(exc.value)


def _two_length_rows(seed=30):
    """Eight sequences of 5 or 8 frames, both speakers at each length."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, (frames, speaker) in enumerate([(5, 0), (8, 1), (5, 1), (8, 0), (5, 0), (8, 0), (5, 1), (8, 1)]):
        features = FeatureSequence(rng.standard_normal((frames, 6)))
        motion = MotionSequence(0.1 * rng.standard_normal((frames, 4, 3)), 25.0)
        rows.append(SequenceRecord(speaker, features, motion, "train", f"seq{i}"))
    return rows


_REPLAY_MODEL = ModelConfig(d=8, audio_dim=6, vertex_count=4, n_speakers=2, max_frames=8,
                            fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=12)


def _replay_configs():
    model_cfg = _REPLAY_MODEL
    base = dt.TrainConfig(learning_rate=1e-2, weights=LossWeights(1.0, 0.5, 0.1, 0.2))
    yield "default", model_cfg, base
    yield "grad_clip", model_cfg, replace(base, grad_clip=0.05)
    for variant, configs in list(dt.variant_configs(model_cfg, base).items())[1:]:
        yield variant, *configs
    yield "kernel anchors sigma=0.5", model_cfg, replace(base, ccrl=CCRLConfig(sigma=0.5, anchor_weighting="kernel"))


@pytest.mark.parametrize("model_cfg, cfg", [pytest.param(m, c, id=name) for name, m, c in _replay_configs()])
def test_replayed_steps_equal_fresh_traces(model_cfg, cfg):
    """Two epochs over two sequence lengths and both speakers: steps that
    replay the program of the step before them give the same loss bundles,
    parameters and Adam moments, bit for bit, as steps that each trace
    anew; steps of both lengths replay."""
    rows = _two_length_rows()
    order = np.random.default_rng(31).permutation(2 * len(rows)) % len(rows)
    runs = []
    for fresh in (False, True):
        params, state = ModelParams(model_cfg, np.random.default_rng(32)), dt.TrainState()
        bundles, replayed = [], set()
        for i in order:
            if fresh:
                state.program = None
            kept = state.program
            bundles.append(dt.train_step(params, rows[i], cfg, state))
            if state.program is kept:
                replayed.add(rows[i].motion.frames)
        runs.append((bundles, params.values, state.moments, replayed))
    (bundles, values, moments, replayed), (fresh_bundles, fresh_values, fresh_moments, fresh_replayed) = runs
    assert replayed == {5, 8} and not fresh_replayed
    assert bundles == fresh_bundles
    assert np.array_equal(values, fresh_values) and np.array_equal(moments, fresh_moments)


def test_step_program_is_bound_once_and_kept_per_length():
    """Right after the trace step, the kept program's record outputs are
    inside the stretches of tape storage its segment checks; two replays
    of that length write into those same arrays; a step of another length
    traces a new program, and that program is the one the state keeps."""
    rows = _two_length_rows()
    five, eight = [r for r in rows if r.motion.frames == 5], [r for r in rows if r.motion.frames == 8]
    cfg = dt.TrainConfig(learning_rate=1e-2)
    params, state = ModelParams(_REPLAY_MODEL, np.random.default_rng(35)), dt.TrainState()
    dt.train_step(params, five[0], cfg, state)
    program = state.program
    (_, stretches, _), = program.segments
    traced = [r.output.data for r in program.tape.records]
    assert all(any(np.shares_memory(a, stretch) for stretch in stretches) for a in traced)
    for seq in five[1:3]:
        dt.train_step(params, seq, cfg, state)
        assert state.program is program
        assert all(r.output.data is a for r, a in zip(program.tape.records, traced))
    dt.train_step(params, eight[0], cfg, state)
    assert state.program is not program and state.program.leaves[0].shape == (8, _REPLAY_MODEL.audio_dim)


def test_step_program_holds_its_outputs_once():
    """Tracing and binding a default-scale step program (T=60, V=120, 32
    bands, d=32, default weights: both directions, 245 records) allocates
    little beyond its outputs: the eager outputs are copied into the tape's
    storage one by one, and the program replays there, so the traced step
    is never held twice. A program with a buffer of its own beside the
    eager outputs peaks at about 2x."""
    import tracemalloc

    rng = np.random.default_rng(0)
    params = ModelParams(ModelConfig(audio_dim=32, vertex_count=120, n_speakers=8, max_frames=60), rng)
    feats = FeatureSequence(rng.standard_normal((60, 32)))
    motion = MotionSequence(0.1 * rng.standard_normal((60, 120, 3)), 25.0)
    cfg = dt.TrainConfig()
    data = dt.step_arrays(feats, motion, cfg)
    tracemalloc.start()
    try:
        program = dt._StepProgram(params, 1, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(r.output.data.nbytes for r in program.tape.records)
    assert len(program.tape.records) == 245 and outputs > 5e6
    assert peak < 1.5 * outputs, peak / outputs


def test_nonfinite_value_in_replayed_step():
    """A replayed step fails as a fresh trace does: NonFiniteLossError
    "forward pass" with the step's number, chained to the same primitive's
    NonFiniteError, and nothing written before it."""
    rows = [r for r in _two_length_rows() if r.motion.frames == 5]
    cfg = dt.TrainConfig(seed=6)
    params = ModelParams(_REPLAY_MODEL, np.random.default_rng(33))
    state = dt.TrainState()
    for seq in rows[:3]:
        dt.train_step(params, seq, cfg, state)
    params["audio_encoder.weight"].value.data[0, 0] = 1e308
    values, moments = params.values.copy(), state.moments.copy()
    with pytest.raises(dt.NonFiniteLossError) as replayed:
        dt.train_step(params, rows[3], cfg, state)
    assert replayed.value.term == "forward pass" and replayed.value.step == 4
    with pytest.raises(dt.NonFiniteLossError) as traced:
        dt.train_step(params, rows[3], cfg, dt.TrainState())
    assert isinstance(replayed.value.__cause__, NonFiniteError)
    assert str(replayed.value.__cause__) == str(traced.value.__cause__)
    assert np.array_equal(params.values, values) and np.array_equal(state.moments, moments)
    assert state.step == 3 and not params.gradients.any()


def test_replayed_step_rejects_a_speaker_as_a_trace_does():
    rows = [r for r in _two_length_rows() if r.motion.frames == 5]
    params, state = ModelParams(_REPLAY_MODEL, np.random.default_rng(34)), dt.TrainState()
    dt.train_step(params, rows[0], dt.TrainConfig(), state)
    values = params.values.copy()
    for speaker in (2, -1):
        bad = replace(rows[1], speaker=speaker)
        with pytest.raises(ValueError) as replayed:
            dt.train_step(params, bad, dt.TrainConfig(), state)
        with pytest.raises(ValueError) as traced:
            dt.train_step(params, bad, dt.TrainConfig(), dt.TrainState())
        assert str(replayed.value) == str(traced.value) == f"speaker {speaker} out of range [0, 2)"
    assert np.array_equal(params.values, values) and state.step == 1


def test_variant_configs():
    sizes = dict(d=8, audio_dim=4, vertex_count=4, n_speakers=2, max_frames=4,
                 fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=8)
    model_cfg = ModelConfig(**sizes)
    cfg = dt.TrainConfig()
    variants = dt.variant_configs(model_cfg, cfg)
    assert list(variants) == list(dt.ABLATION_VARIANTS)
    m, t = variants["disable_dual"]
    assert (t.weights.dual, t.weights.dr, t.weights.ccrl) == (0.0, 0.0, 0.0) and cfg.weights.dual != 0.0
    assert not m.share_transpose_codec
    m1, t1 = variants["disable_ccrl"]
    assert t1.weights.ccrl == 0.0 and cfg.weights.ccrl != 0.0
    m2, t2 = variants["share_transpose_codec"]
    assert m2.share_transpose_codec and t2 == cfg
    m3, t3 = variants["full"]
    assert m3 == model_cfg and t3 == cfg
    tied = ModelConfig(**{**asdict(model_cfg), "share_transpose_codec": True})
    assert not dt.variant_configs(tied, cfg)["full"][0].share_transpose_codec  # the base stays untied
    # the given configs come back unchanged
    assert (model_cfg, cfg) == (ModelConfig(**sizes), dt.TrainConfig()) and tied.share_transpose_codec
    for config, name in [(m, "d"), (t, "seed"), (t.weights, "dual"), (t.ccrl, "sigma")]:
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))


def test_ablate_emits_table_and_csvs(tmp_path):
    ds = tiny_dataset(tmp_path, n_sequences=6)
    cfg = dt.TrainConfig(epochs=1, seed=0)
    result = dt.ablate(ds, tiny_model(ds), cfg, [0, 1], tmp_path / "abl")
    assert len(result.rows) == 2 * len(dt.ABLATION_VARIANTS)
    variants = {r.variant for r in result.rows}
    assert variants == set(dt.ABLATION_VARIANTS)
    assert all(np.isfinite(r.lve) and np.isfinite(r.fdd) for r in result.rows)

    table = Path(result.table_path).read_text()
    for v in dt.ABLATION_VARIANTS:
        assert v in table
    blob = json.loads(Path(result.json_path).read_text())
    assert len(blob) == len(result.rows)
    assert {"variant", "seed", "lve", "fdd"} == set(blob[0])

    assert len(result.csv_paths) == 2
    for csv_path in result.csv_paths:
        lines = Path(csv_path).read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["frame", "gt", *dt.ABLATION_VARIANTS]
        assert len(lines) > 1
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    text = result.format()
    assert "disable_dual" in text
