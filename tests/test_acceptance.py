"""End-to-end acceptance gate.

One test per criterion, run in order; each prints a single
`[ACCEPTANCE n] PASS|FAIL <label>` line (visible with -s, or in captured
output on failure) and asserts. Tolerances are pinned inline:

  1. full gradient suite at 1e-4 relative tolerance, under 120 s
  2. oracle equivalence, 100 random instances per item, 1e-12 mixed bound
  3. weight sharing invariants after 10 optimization steps, exact equality
  4. autoregressive/teacher-forcing agreement at T=20, 1e-9 max abs error
  5. default synthetic convergence: >=90% primal-loss drop within 2000
     steps and trained < untrained val LVE on 3/3 seeds, under 900 s
  6. ablation harness emits the 4-variant x 3-seed comparison; the
     dual-path direction is reported, not asserted
  7. bit-identical logs (first 10 steps) and checkpoint hashes across two
     identically seeded training commands
  8. metric identities: exact 0, exact 0, exact 5.0
"""

import json
import time
from pathlib import Path

import numpy as np

from dualface import cli
from dualface import diffcore as dc
from dualface import losses as dl
from dualface import metrics as mm
from dualface import model as dm
from dualface import train as dt
from dualface.data import (
    FeatureSequence,
    MotionSequence,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
)

import oracles


def _verdict(n: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'} {label}{suffix}", flush=True)
    assert ok, f"criterion {n} failed: {label}{suffix}"


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    ok, lines = cli.run_gradcheck("full", tolerance=1e-4, step=1e-5)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _verdict(1, "full gradcheck at 1e-4", ok, f"{len(lines)} checks in {elapsed:.1f}s")


def _small_params(rng):
    cfg = dm.ModelConfig(
        d=8, audio_dim=5, vertex_count=4, n_speakers=3, max_frames=6,
        fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=12,
    )
    return dm.ModelParams(cfg, rng)


def _weights(params, pattern, count):
    return [params[pattern.format(h=h)].value.data for h in range(count)]


def test_criterion_2_oracle_equivalence():
    checks = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        params = _small_params(rng)
        t = int(rng.integers(2, 6))
        x = rng.standard_normal((t, 8))
        kv = rng.standard_normal((t, 8))

        stream = "motion" if trial % 2 == 0 else "audio"
        direction = "primal" if trial % 2 == 0 else "dual"
        got = dm.self_attend(params, dc.Tensor(x), direction).data
        want = oracles.self_attention(
            x,
            _weights(params, f"self_attn.{stream}.h{{h}}.q", 2),
            _weights(params, f"self_attn.{stream}.h{{h}}.k", 2),
            _weights(params, f"self_attn.{stream}.h{{h}}.v", 2),
            params[f"self_attn.{stream}.out"].value.data,
        )
        oracles.assert_close(got, want, 1e-12, f"self-attention {trial}")

        if direction == "primal":
            qw = _weights(params, "fusion.qk_audio.h{h}", 2)
            kw = _weights(params, "fusion.qk_motion.h{h}", 2)
        else:
            qw = _weights(params, "fusion.qk_motion.h{h}", 2)
            kw = _weights(params, "fusion.qk_audio.h{h}", 2)
        got = dm.cross_attend(params, dc.Tensor(x), dc.Tensor(kv), direction).data
        want = oracles.cross_attention(
            x, kv, qw, kw,
            _weights(params, f"fusion.{direction}.v.h{{h}}", 2),
            params[f"fusion.{direction}.out"].value.data,
            params[f"fusion.{direction}.ff1.weight"].value.data,
            params[f"fusion.{direction}.ff1.bias"].value.data,
            params[f"fusion.{direction}.ff2.weight"].value.data,
            params[f"fusion.{direction}.ff2.bias"].value.data,
        )
        oracles.assert_close(got, want, 1e-12, f"cross-attention {trial}")

        speaker = int(rng.integers(0, 3))
        got = dm.speaker_modulate(params, dc.Tensor(x), dm.style_embed(params, speaker), direction).data
        want = oracles.speaker_modulation(
            x,
            params["style_table"].value.data[speaker : speaker + 1],
            params[f"speaker_gate.{stream}.fc1.weight"].value.data,
            params[f"speaker_gate.{stream}.fc1.bias"].value.data,
            params[f"speaker_gate.{stream}.fc2.weight"].value.data,
            params[f"speaker_gate.{stream}.fc2.bias"].value.data,
        )
        oracles.assert_close(got, want, 1e-12, f"speaker modulation {trial}")

        p = rng.standard_normal((t, 6))
        q = rng.standard_normal((t, 6))
        motion = MotionSequence(rng.standard_normal((t, 4, 3)), 25.0)
        weighting = "uniform" if trial % 2 == 0 else "kernel"
        got = dl.ccrl_direction(dc.Tensor(p), dc.Tensor(q), motion, dl.CCRLConfig(anchor_weighting=weighting)).item()
        want = oracles.ccrl_direction(p, q, motion.displacements, anchor_weighting=weighting)
        oracles.assert_close(got, want, 1e-12, f"ccrl {trial}")

        gt = MotionSequence(rng.standard_normal((t, 7, 3)), 25.0)
        pred = MotionSequence(gt.displacements + 0.3 * rng.standard_normal((t, 7, 3)), 25.0)
        lips = mm.RegionSet("lips", sorted(rng.choice(7, size=3, replace=False).tolist()))
        upper = mm.RegionSet("upper", sorted(rng.choice(7, size=2, replace=False).tolist()))
        oracles.assert_close(
            mm.lip_vertex_error(pred, gt, lips),
            oracles.lip_vertex_error(pred.displacements, gt.displacements, lips.indices),
            1e-12, f"lve {trial}",
        )
        oracles.assert_close(
            mm.fdd(pred, gt, upper),
            oracles.fdd(pred.displacements, gt.displacements, upper.indices),
            1e-12, f"fdd {trial}",
        )
        checks += 6
    _verdict(2, "oracle equivalence at 1e-12", True, f"{checks} instances across 6 oracles")


def test_criterion_3_weight_sharing_after_training(tmp_path):
    spec = SyntheticSpec(n_speakers=2, n_sequences=12, frames=10, vertex_count=24, bands=6, seed=3)
    generate_synthetic(spec, tmp_path)
    ds = load_dataset(tmp_path / "manifest.json")
    cfg = dm.ModelConfig(
        d=16, audio_dim=ds.audio_dim, vertex_count=24, n_speakers=2, max_frames=ds.max_frames,
        fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=24, share_transpose_codec=True,
    )
    params = dm.ModelParams(cfg, np.random.default_rng(0))
    qk_before = params["fusion.qk_audio.h0"]
    state = dt.TrainState()
    rows = ds.split("train")
    tcfg = dt.TrainConfig(seed=0)
    for i in range(10):
        dt.train_step(params, rows[i % len(rows)], tcfg, state)
    assert state.step == 10

    # (a) the q/k projections are single Parameter objects serving both
    # directions: gradients reach them from either task alone
    ok_a = params["fusion.qk_audio.h0"] is qk_before
    names = {n for n, _ in params.named_parameters()}
    ok_a &= not any(n.startswith(("fusion.primal.q", "fusion.primal.k", "fusion.dual.q", "fusion.dual.k")) for n in names)
    shared = ["fusion.qk_audio.h0", "fusion.qk_motion.h1", "audio_encoder.weight",
              "motion_encoder.weight", "style_table"]
    seq = rows[0]
    gt_flat = dc.Tensor(seq.motion.displacements.reshape(seq.motion.frames, -1))
    ok_b = True
    for direction in ("primal", "dual"):
        params.zero_gradients()
        with dc.Tape() as tape:
            if direction == "primal":
                out = dm.forward_primal(params, seq.features, seq.speaker, seq.motion)
                loss = dl.mse(out.prediction, gt_flat)
            else:
                out = dm.forward_dual(params, seq.motion, seq.speaker, seq.features)
                loss = dl.mse(out.prediction, dc.Tensor(seq.features.values))
            dc.backpropagate(tape, loss)
        for name in shared:
            ok_b &= bool(np.any(params[name].gradient))

    # (c) tied codec weights are exact transposes after optimization
    ok_c = np.array_equal(
        params.motion_decoder_weight().data, params["motion_encoder.weight"].value.data.T
    ) and np.array_equal(
        params.audio_decoder_out_weight().data, params["audio_encoder.weight"].value.data.T
    )
    ok_c &= "motion_decoder.weight" not in names and "audio_decoder.out.weight" not in names
    _verdict(3, "weight sharing invariants after 10 steps", ok_a and ok_b and ok_c,
             f"identity={ok_a} both-task gradients={ok_b} exact transposes={ok_c}")


def test_criterion_4_autoregressive_consistency():
    cfg = dm.ModelConfig(
        d=32, audio_dim=8, vertex_count=24, n_speakers=2, max_frames=20,
        fusion_heads=4, self_heads=4, squeeze_ratio=16, ff_dim=128,
    )
    params = dm.ModelParams(cfg, np.random.default_rng(42))
    rng = np.random.default_rng(43)
    t = 20
    feats = FeatureSequence(rng.standard_normal((t, 8)))
    gen = dm.generate_motion(params, feats, 0)
    tf = dm.forward_primal(params, feats, 0, gen)
    primal_err = float(np.abs(tf.prediction.data.reshape(t, 24, 3) - gen.displacements).max())

    motion = MotionSequence(0.1 * rng.standard_normal((t, 24, 3)), 25.0)
    gen_a = dm.generate_audio(params, motion, 1)
    tf_a = dm.forward_dual(params, motion, 1, gen_a)
    dual_err = float(np.abs(tf_a.prediction.data - gen_a.values).max())
    ok = primal_err <= 1e-9 and dual_err <= 1e-9
    _verdict(4, "autoregressive consistency at T=20 within 1e-9", ok,
             f"primal {primal_err:.2e}, dual {dual_err:.2e}")


def _default_scale_setup(tmp_path):
    data_dir = tmp_path / "default_data"
    generate_synthetic(SyntheticSpec(), data_dir)  # 8 speakers, 40 seqs, T=60, V=120, B=32
    ds = load_dataset(data_dir / "manifest.json")
    model_cfg = dm.ModelConfig(
        d=32, audio_dim=ds.audio_dim, vertex_count=120, n_speakers=8, max_frames=ds.max_frames,
        fusion_heads=4, self_heads=4, squeeze_ratio=16, ff_dim=128,
    )
    return ds, model_cfg


def test_criterion_5_synthetic_convergence(tmp_path):
    t0 = time.monotonic()
    ds, model_cfg = _default_scale_setup(tmp_path)
    drops = []
    wins = 0
    for seed in (0, 1, 2):
        untrained = dt.evaluate_params(
            dm.ModelParams(model_cfg, np.random.default_rng(seed)), ds, "val"
        ).lve
        # 63 epochs x 32 train sequences = 2016 steps (>= the 2000-step window)
        res = dt.train(ds, model_cfg, dt.TrainConfig(epochs=63, seed=seed, val_every=8),
                       tmp_path / f"run{seed}")
        lines = [json.loads(l) for l in Path(res.log_path).read_text().splitlines()]
        baseline = lines[0]["l_primal"]
        tail = float(np.mean([l["l_primal"] for l in lines[:2000][-32:]]))
        drops.append(1.0 - tail / baseline)
        if res.state.best_val_lve < untrained:
            wins += 1
    elapsed = time.monotonic() - t0
    ok = all(d >= 0.90 for d in drops) and wins == 3 and elapsed < 900.0
    _verdict(5, "default synthetic convergence", ok,
             f"drops {[f'{d:.1%}' for d in drops]}, trained<untrained {wins}/3, {elapsed:.0f}s")


def test_criterion_6_ablation_comparison(tmp_path):
    ds, model_cfg = _default_scale_setup(tmp_path)
    result = dt.ablate(ds, model_cfg, dt.TrainConfig(epochs=8, seed=0, val_every=4),
                       [0, 1, 2], tmp_path / "ablation")
    rows = result.rows
    structural = (
        len(rows) == 12
        and {r.variant for r in rows} == set(dt.ABLATION_VARIANTS)
        and {r.seed for r in rows} == {0, 1, 2}
        and all(np.isfinite(r.lve) for r in rows)
        and Path(result.table_path).exists()
        and Path(result.json_path).exists()
        and len(result.csv_paths) == 3
    )
    full = {r.seed: r.lve for r in rows if r.variant == "full"}
    no_dual = {r.seed: r.lve for r in rows if r.variant == "disable_dual"}
    majority = sum(1 for s in full if no_dual[s] > full[s])
    # the direction (dual path helping) is reported, not build-breaking
    direction = f"disable_dual worse on {majority}/3 seeds ({'matches' if majority >= 2 else 'does not match'} expected direction)"
    _verdict(6, "ablation table emitted", structural, direction)


def test_criterion_7_determinism(tmp_path):
    args = [
        "synth", "--out", str(tmp_path / "data"), "--set", "synthetic.n_speakers=2",
        "--set", "synthetic.n_sequences=14", "--set", "synthetic.frames=12",
        "--set", "synthetic.vertex_count=24", "--set", "synthetic.bands=6",
    ]
    assert cli.main(args) == 0
    train_args = [
        "train", "--data", str(tmp_path / "data" / "manifest.json"),
        "--set", "train.epochs=2", "--set", "train.seed=11",
        "--set", "model.d=16", "--set", "model.ff_dim=24",
        "--set", "model.fusion_heads=2", "--set", "model.self_heads=2",
        "--set", "model.squeeze_ratio=4",
    ]
    assert cli.main(train_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(train_args + ["--out", str(tmp_path / "b")]) == 0
    log_a = (tmp_path / "a" / "train_log.jsonl").read_bytes().splitlines()[:10]
    log_b = (tmp_path / "b" / "train_log.jsonl").read_bytes().splitlines()[:10]
    hash_a = dt.file_sha256(tmp_path / "a" / "best.ckpt")
    hash_b = dt.file_sha256(tmp_path / "b" / "best.ckpt")
    ok = len(log_a) == 10 and log_a == log_b and hash_a == hash_b
    _verdict(7, "bit-identical reruns", ok, f"10 log lines equal, checkpoint {hash_a[:12]}")


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(88)
    gt = MotionSequence(rng.standard_normal((6, 12, 3)), 25.0)
    lips = mm.RegionSet("lips", [0, 1, 2, 3])
    upper = mm.RegionSet("upper", [6, 7, 8])
    lve_id = mm.lip_vertex_error(gt, gt, lips)
    fdd_id = mm.fdd(gt, gt, upper)
    shifted = gt.displacements.copy()
    shifted[:, :4] += np.array([3.0, 4.0, 0.0])
    lve_offset = mm.lip_vertex_error(MotionSequence(shifted, 25.0), gt, lips)
    ok = lve_id == 0.0 and fdd_id == 0.0 and lve_offset == 5.0
    _verdict(8, "metric identities exact", ok,
             f"lve(gt,gt)={lve_id}, fdd(gt,gt)={fdd_id}, offset lve={lve_offset}")
