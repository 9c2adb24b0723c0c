import numpy as np
import pytest

from dualface import diffcore as dc
from dualface import losses as dl
from dualface.data import FeatureSequence, MotionSequence
from dualface.model import ModelConfig, ModelParams, forward_dual, forward_primal

import oracles
from oracles import assert_close


def test_mse_matches_oracle():
    for trial in range(20):
        rng = np.random.default_rng(trial)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 6))
        got = dl.mse(dc.Tensor(a), dc.Tensor(b)).item()
        assert_close(got, oracles.mse(a, b), 1e-13, "mse")


def test_smooth_l1_matches_oracle():
    for trial in range(20):
        rng = np.random.default_rng(50 + trial)
        # mix of small and large residuals so both branches are exercised
        a = rng.standard_normal((5, 4)) * rng.uniform(0.2, 3.0)
        b = rng.standard_normal((5, 4))
        got = dl.smooth_l1(dc.Tensor(a), dc.Tensor(b)).item()
        assert_close(got, oracles.smooth_l1(a, b), 1e-13, "smooth_l1")


def test_smooth_l1_branch_values():
    z = dc.Tensor(np.zeros((1, 1)))
    assert dl.smooth_l1(dc.Tensor([[0.5]]), z).item() == pytest.approx(0.125, abs=1e-15)
    assert dl.smooth_l1(dc.Tensor([[3.0]]), z).item() == pytest.approx(2.5, abs=1e-15)
    assert dl.smooth_l1(dc.Tensor([[-3.0]]), z).item() == pytest.approx(2.5, abs=1e-15)
    assert dl.smooth_l1(z, z).item() == 0.0


def test_duality_regularizer_is_summed_round_trips():
    rng = np.random.default_rng(3)
    x, xr, y, yr = (dc.Tensor(rng.standard_normal((3, 5))) for _ in range(4))
    got = dl.duality_regularizer(x, xr, y, yr).item()
    want = oracles.smooth_l1(x.data, xr.data) + oracles.smooth_l1(y.data, yr.data)
    assert_close(got, want, 1e-13, "duality")


def test_motion_kernel_properties():
    rng = np.random.default_rng(4)
    motion = MotionSequence(rng.standard_normal((6, 4, 3)), 25.0)
    w, sigma = dl.motion_kernel(motion, dl.CCRLConfig())
    assert w.shape == (6, 6)
    assert np.array_equal(np.diag(w), np.ones(6))
    assert np.allclose(w, w.T)
    assert np.all((w > 0) & (w <= 1))
    ow, osigma = oracles.motion_kernel(motion.displacements)
    assert_close(sigma, osigma, 1e-12, "sigma median")
    assert_close(w, ow, 1e-12, "kernel")


def test_motion_kernel_sigma_override_and_fallback():
    rng = np.random.default_rng(5)
    motion = MotionSequence(rng.standard_normal((4, 4, 3)), 25.0)
    w, sigma = dl.motion_kernel(motion, dl.CCRLConfig(sigma=2.0))
    assert sigma == 2.0
    flat = MotionSequence(np.zeros((4, 4, 3)), 25.0)
    w2, sigma2 = dl.motion_kernel(flat, dl.CCRLConfig())
    assert sigma2 == 1.0  # degenerate median falls back
    assert np.array_equal(w2, np.ones((4, 4)))
    with pytest.raises(ValueError):
        dl.motion_kernel(motion, dl.CCRLConfig(sigma=-1.0))
    with pytest.raises(ValueError):
        dl.motion_kernel(motion, dl.CCRLConfig(anchor_weighting="softmax"))


KERNEL_CASES = [
    (1, 120, dl.CCRLConfig(), False),
    (2, 120, dl.CCRLConfig(), False),
    (7, 120, dl.CCRLConfig(), False),
    (60, 120, dl.CCRLConfig(), False),
    (7, 120, dl.CCRLConfig(), True),
    (60, 120, dl.CCRLConfig(sigma=0.5), False),
    (60, 120, dl.CCRLConfig(anchor_weighting="kernel"), False),
    # 3V = 6, 33, 150 and 1200 reach each branch of NumPy's pairwise sum:
    # under 8 terms, 8-128 terms not a multiple of 8, one split, several
    (60, 2, dl.CCRLConfig(), False),
    (60, 11, dl.CCRLConfig(), False),
    (60, 50, dl.CCRLConfig(), False),
    (60, 400, dl.CCRLConfig(), False),
    (3, 400, dl.CCRLConfig(), False),
    (61, 400, dl.CCRLConfig(), False),
]


@pytest.mark.parametrize("frames, vertices, cfg, identical", KERNEL_CASES,
                         ids=[f"{t}-cfg{i}-{same}" if v == 120 else f"{t}-3V{3 * v}"
                              for i, (t, v, _, same) in enumerate(KERNEL_CASES)])
def test_motion_kernel_is_bit_identical_to_broadcast(frames, vertices, cfg, identical):
    """The kernel, filled one frame offset at a time, equals the (T, T, 3V)
    broadcast formula exactly, weights and bandwidth both; and a row's
    squared distance sums to the same bits in a block of any height, which
    the offset form relies on."""
    rng = np.random.default_rng(frames)
    disp = rng.standard_normal((frames, vertices, 3))
    if identical:
        disp[:] = disp[0]  # zero median: the bandwidth falls back to 1.0
    flat = disp.reshape(frames, -1)
    sq = ((flat[:, None, :] - flat[None, :, :]) ** 2).sum(axis=2)
    if cfg.sigma is not None:
        want_sigma = float(cfg.sigma)
    else:
        iu = np.triu_indices(frames, k=1)
        want_sigma = float(np.median(np.sqrt(sq[iu]))) if iu[0].size else 1.0
        if want_sigma < 1e-12:
            want_sigma = 1.0
    want = np.exp(-sq / (2.0 * want_sigma * want_sigma))
    w, sigma = dl.motion_kernel(MotionSequence(disp, 25.0), cfg)
    assert np.array_equal(w, want)
    assert sigma == want_sigma
    if identical:
        assert sigma == 1.0
    rows = (flat - flat[0]) ** 2
    one_by_one = np.array([row.sum() for row in rows])
    for height in range(1, frames + 1):
        assert np.array_equal(np.add.reduce(rows[:height], axis=1), one_by_one[:height])


def test_ccrl_matches_oracle():
    for trial in range(30):
        rng = np.random.default_rng(100 + trial)
        t = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        p = rng.standard_normal((t, d))
        q = rng.standard_normal((t, d))
        motion = MotionSequence(rng.standard_normal((t, 3, 3)), 25.0)
        for weighting in ("uniform", "kernel"):
            cfg = dl.CCRLConfig(anchor_weighting=weighting)
            got = dl.ccrl_direction(dc.Tensor(p), dc.Tensor(q), motion, cfg).item()
            want = oracles.ccrl_direction(p, q, motion.displacements, anchor_weighting=weighting)
            assert_close(got, want, 1e-12, f"ccrl {weighting}")


def test_ccrl_handles_zero_rows():
    """The norm floor keeps all-zero latent rows finite and differentiable."""
    rng = np.random.default_rng(6)
    p = rng.standard_normal((3, 4))
    p[1] = 0.0
    q = rng.standard_normal((3, 4))
    motion = MotionSequence(rng.standard_normal((3, 2, 3)), 25.0)
    got = dl.ccrl_direction(dc.Tensor(p), dc.Tensor(q), motion, dl.CCRLConfig()).item()
    want = oracles.ccrl_direction(p, q, motion.displacements)
    assert np.isfinite(got)
    assert_close(got, want, 1e-12, "ccrl zero row")


def test_ccrl_needs_two_frames():
    motion = MotionSequence(np.zeros((1, 2, 3)), 25.0)
    with pytest.raises(ValueError):
        dl.ccrl_direction(dc.Tensor(np.ones((1, 3))), dc.Tensor(np.ones((1, 3))), motion, dl.CCRLConfig())
    with pytest.raises(dc.ShapeMismatchError):
        dl.ccrl_direction(
            dc.Tensor(np.ones((3, 3))),
            dc.Tensor(np.ones((2, 3))),
            MotionSequence(np.zeros((3, 2, 3)), 25.0),
            dl.CCRLConfig(),
        )


def test_ccrl_kernel_tempering_softens_close_frames():
    """A near-duplicate frame pair should repel less than a distant pair."""
    rng = np.random.default_rng(7)
    p = rng.standard_normal((3, 4))
    q = rng.standard_normal((3, 4))
    base = np.zeros((3, 2, 3))
    base[1] += 0.01  # frames 0 and 1 nearly identical motion
    base[2] += 10.0
    tempered = dl.ccrl_direction(dc.Tensor(p), dc.Tensor(q), MotionSequence(base, 25.0), dl.CCRLConfig(sigma=1.0)).item()
    spread = base.copy()
    spread[1] += 10.0  # now frame 1 is far too
    untempered = dl.ccrl_direction(dc.Tensor(p), dc.Tensor(q), MotionSequence(spread, 25.0), dl.CCRLConfig(sigma=1.0)).item()
    # with w ~ 1 the tempered similarity exponent collapses toward exp(0)=1
    assert tempered != untempered


def _toy_forward(seed, t=5):
    cfg = ModelConfig(d=8, audio_dim=4, vertex_count=4, n_speakers=2, max_frames=8,
                      fusion_heads=2, self_heads=2, squeeze_ratio=4, ff_dim=12)
    params = ModelParams(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    feats = FeatureSequence(rng.standard_normal((t, 4)))
    motion = MotionSequence(0.1 * rng.standard_normal((t, 4, 3)), 25.0)
    return params, feats, motion


def _targets(feats, motion):
    """total_loss's target tensors: feature rows, flattened motion rows and
    the motion's CCRL constants."""
    rows = motion.displacements.reshape(motion.frames, -1)
    return dc.Tensor(feats.values), dc.Tensor(rows), [dc.Tensor(c) for c in dl.ccrl_constants(motion, dl.CCRLConfig())]


def test_total_loss_bundle_consistency():
    params, feats, motion = _toy_forward(8)
    weights = dl.LossWeights()
    with dc.Tape():
        primal = forward_primal(params, feats, 0, motion)
        dual = forward_dual(params, motion, 0, feats)
        terms, total = dl.total_loss(primal, dual, *_targets(feats, motion), weights)
        bundle = dl.LossBundle.read(terms, total)
    recomposed = (
        weights.primal * bundle.l_primal
        + weights.dual * bundle.l_dual
        + weights.dr * bundle.l_dr
        + weights.ccrl * bundle.l_ccrl
    )
    assert_close(bundle.total, recomposed, 1e-12, "bundle total")
    assert_close(total.item(), bundle.total, 0.0, "node matches bundle")
    assert bundle.l_primal > 0 and bundle.l_dual > 0 and bundle.l_ccrl > 0


def test_total_loss_without_dual():
    params, feats, motion = _toy_forward(9)
    with dc.Tape():
        primal = forward_primal(params, feats, 0, motion)
        terms, total = dl.total_loss(primal, None, *_targets(feats, motion), dl.LossWeights())
        bundle = dl.LossBundle.read(terms, total)
    assert bundle.l_dual == 0.0 and bundle.l_dr == 0.0 and bundle.l_ccrl == 0.0
    assert_close(bundle.total, bundle.l_primal, 1e-15, "primal only")
    assert total.data.size == 1


def test_total_loss_zero_weights_skip_terms():
    params, feats, motion = _toy_forward(10)
    weights = dl.LossWeights(primal=1.0, dual=1.0, dr=0.0, ccrl=0.0)
    with dc.Tape():
        primal = forward_primal(params, feats, 0, motion)
        dual = forward_dual(params, motion, 0, feats)
        bundle = dl.LossBundle.read(*dl.total_loss(primal, dual, *_targets(feats, motion), weights))
    assert bundle.l_dr == 0.0 and bundle.l_ccrl == 0.0
    assert_close(bundle.total, bundle.l_primal + bundle.l_dual, 1e-12, "weighted skip")
    with dc.Tape(), pytest.raises(ValueError, match="no loss terms"):
        dl.total_loss(primal, dual, *_targets(feats, motion), dl.LossWeights(0.0, 0.0, 0.0, 0.0))


def test_loss_gradients_flow_to_both_tasks():
    params, feats, motion = _toy_forward(11)
    params.zero_gradients()
    with dc.Tape() as tape:
        primal = forward_primal(params, feats, 0, motion)
        dual = forward_dual(params, motion, 0, feats)
        _, total = dl.total_loss(primal, dual, *_targets(feats, motion), dl.LossWeights())
        dc.backpropagate(tape, total)
    assert np.any(params["motion_decoder.bias"].gradient)
    assert np.any(params["audio_decoder.out.bias"].gradient)
    assert np.any(params["fusion.qk_audio.h0"].gradient)
    assert np.any(params["style_table"].gradient[0])
    assert not np.any(params["style_table"].gradient[1])  # unused speaker row
