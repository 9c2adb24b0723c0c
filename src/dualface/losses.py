"""Training losses: reconstruction, round-trip duality, and the
kernel-weighted cross-modal contrastive consistency term.

Every loss is built from the closed diffcore catalog so gradients flow
through the same tape as the model. Kernel weights are computed from
ground-truth motion in plain numpy and enter the graph as constants; no
gradient flows through them or the bandwidth.
"""

from __future__ import annotations

import numpy as np

from dataclasses import asdict, dataclass

from . import diffcore as dc
from .data import MotionSequence, NonNegative, Positive, check_field_types
from .model import ForwardOutputs

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    primal: NonNegative = 1.0
    dual: NonNegative = 1e-8
    dr: NonNegative = 1e-9
    ccrl: NonNegative = 1e-6

    def validate(self):
        check_field_types(self)
        if not any(asdict(self).values()):
            raise ValueError("LossWeights: at least one weight must be positive")


@dataclass(frozen=True)
class CCRLConfig:
    """sigma=None selects the per-sequence median pairwise motion distance
    (recomputed per sequence, excluded from gradient flow)."""

    sigma: Positive | None = None
    anchor_weighting: str = "uniform"  # or "kernel": heuristic anchor weights

    def validate(self):
        check_field_types(self)
        if self.anchor_weighting not in ("uniform", "kernel"):
            raise ValueError("anchor_weighting must be 'uniform' or 'kernel'")
        if self.sigma is not None and 2.0 * self.sigma * self.sigma == 0.0:
            raise ValueError(f"CCRLConfig.sigma must be large enough that 2*sigma^2 is not 0, got {self.sigma!r}")


@dataclass
class LossBundle:
    """Component values; a term total_loss did not build reads 0."""

    l_primal: float = 0.0
    l_dual: float = 0.0
    l_dr: float = 0.0
    l_ccrl: float = 0.0
    total: float = 0.0

    @classmethod
    def read(cls, terms: dict[str, dc.Tensor], total: dc.Tensor) -> "LossBundle":
        """The current values of total_loss's term tensors and total."""
        return cls(total=total.item(), **{f"l_{name}": term.item() for name, term in terms.items()})


def mse(prediction: dc.Tensor, target: dc.Tensor) -> dc.Tensor:
    diff = dc.subtract(prediction, target)
    return dc.mean_all(dc.multiply(diff, diff))


def smooth_l1(a: dc.Tensor, b: dc.Tensor) -> dc.Tensor:
    """Mean Huber penalty with beta=1: 0.5*x^2 inside |x|<1, |x|-0.5 outside.

    Composed from relu: |x| = relu(x)+relu(-x), min(|x|,1) = |x|-relu(|x|-1).
    """
    diff = dc.subtract(a, b)
    absval = dc.add(dc.relu(diff), dc.relu(dc.scalar_multiply(diff, -1.0)))
    ones = dc.Tensor(np.ones_like(diff.data))
    clipped = dc.subtract(absval, dc.relu(dc.subtract(absval, ones)))
    quad = dc.scalar_multiply(dc.multiply(clipped, clipped), 0.5)
    return dc.mean_all(dc.add(quad, dc.subtract(absval, clipped)))


def duality_regularizer(x, x_round, y, y_round) -> dc.Tensor:
    """Round-trip agreement between encoder latents and fused predictions."""
    return dc.add(smooth_l1(x, x_round), smooth_l1(y, y_round))


def motion_kernel(gt_motion: MotionSequence, cfg: CCRLConfig) -> tuple[np.ndarray, float]:
    """(T, T) Gaussian weights from pairwise frame motion distances.

    Bandwidth is cfg.sigma, or the median pairwise distance of this sequence;
    when that median degenerates to ~0 (all frames identical) the fallback
    bandwidth 1.0 is used, which still yields all-ones weights.
    """
    cfg.validate()
    t = gt_motion.frames
    flat = gt_motion.displacements.reshape(t, -1)
    # Filled one frame offset k at a time into the k-th superdiagonal, then
    # mirrored, without a (T, T, 3V) temporary. Each pair is summed over the
    # same contiguous row as a full broadcast would, and (a-b)**2 == (b-a)**2
    # exactly, so the matrix is bit-identical to the broadcast one.
    sq = np.zeros((t, t))
    scratch = np.empty_like(flat)
    for k in range(1, t):
        d = np.subtract(flat[k:], flat[:-k], out=scratch[: t - k])
        np.multiply(d, d, out=d)
        np.add.reduce(d, axis=1, out=sq.reshape(-1)[k :: t + 1][: t - k])
    sq += sq.T
    if cfg.sigma is not None:
        sigma = float(cfg.sigma)
    else:
        iu = np.triu_indices(t, k=1)
        sigma = float(np.median(np.sqrt(sq[iu]))) if iu[0].size else 1.0
        if sigma < _NORM_FLOOR:
            sigma = 1.0
    return np.exp(-sq / (2.0 * sigma * sigma)), sigma


def _row_normalize(m: dc.Tensor) -> dc.Tensor:
    """Rows scaled to unit norm, with the squared norm floored at 1e-24
    (equivalent to the 1e-12 norm floor, sqrt being monotone)."""
    t, d = m.data.shape
    ones_col = dc.Tensor(np.ones((d, 1)))
    sq_norm = dc.matmul(dc.multiply(m, m), ones_col)  # (T, 1)
    floor = dc.Tensor(np.full((t, 1), _NORM_FLOOR**2))
    floored = dc.add(floor, dc.relu(dc.subtract(sq_norm, floor)))
    inv_norm = dc.exp(dc.scalar_multiply(dc.log(floored), -0.5))
    ones_row = dc.Tensor(np.ones((1, d)))
    return dc.multiply(m, dc.matmul(inv_norm, ones_row))


def ccrl_constants(gt_motion: MotionSequence, cfg: CCRLConfig) -> list[np.ndarray]:
    """The per-sequence constants of the CCRL loss under gt_motion's kernel
    weights w: 1 - w (in the kernel's storage) and, with kernel anchor weighting,
    the (T, 1) anchor weights, each row's mass of w normalized to sum 1."""
    kernel, _ = motion_kernel(gt_motion, cfg)
    constants = [kernel]
    if cfg.anchor_weighting == "kernel":
        anchor_mass = kernel.mean(axis=1)
        constants.append((anchor_mass / anchor_mass.sum()).reshape(-1, 1))
    np.subtract(1.0, kernel, out=kernel)
    return constants


def ccrl_direction(p: dc.Tensor, q: dc.Tensor, gt_motion: MotionSequence, cfg: CCRLConfig) -> dc.Tensor:
    """Contrastive consistency with anchor rows from p against q (inter) and
    p itself (intra); motion-kernel weights soften temporally close negatives.

    Per anchor k: loss_k = -s_inter[k,k] + log(sum_{t!=k} exp(s_inter[k,t]*(1-w[k,t]))
    + exp(s_intra[k,t]*(1-w[k,t]))), averaged uniformly over anchors (or with
    normalized kernel-mass anchor weights when configured).
    """
    return _ccrl([(p, q)], [dc.Tensor(c) for c in ccrl_constants(gt_motion, cfg)])


def ccrl_total(x, y, x_round, y_round, constants: list[dc.Tensor]) -> dc.Tensor:
    """Consistency on encoder latents plus consistency on fused predictions,
    both under the tensors of one motion's ccrl_constants."""
    return _ccrl([(x, y), (x_round, y_round)], constants)


def _ccrl(pairs, constants: list[dc.Tensor]) -> dc.Tensor:
    """Sum of ccrl_direction over (p, q) pairs under the same constants."""
    one_minus_w, *anchor = constants
    t = one_minus_w.data.shape[0]
    for p, q in pairs:
        if p.data.shape[0] != t or q.data.shape[0] != t:
            raise dc.ShapeMismatchError("ccrl_direction: feature rows and motion frames must align")
    if t < 2:
        raise ValueError("ccrl_direction needs at least 2 frames")
    off_diag = dc.Tensor(1.0 - np.eye(t))
    eye = dc.Tensor(np.eye(t))
    ones_col = dc.Tensor(np.ones((t, 1)))
    total = None
    for p, q in pairs:
        pn = _row_normalize(p)
        qn = _row_normalize(q)
        s_inter = dc.matmul(pn, dc.transpose_last_two(qn))
        s_intra = dc.matmul(pn, dc.transpose_last_two(pn))
        energy = dc.add(dc.exp(dc.multiply(s_inter, one_minus_w)), dc.exp(dc.multiply(s_intra, one_minus_w)))
        denom = dc.matmul(dc.multiply(energy, off_diag), ones_col)  # (T, 1)
        diag = dc.matmul(dc.multiply(s_inter, eye), ones_col)  # (T, 1)
        per_anchor = dc.subtract(dc.log(denom), diag)
        term = dc.sum_all(dc.multiply(per_anchor, anchor[0])) if anchor else dc.mean_all(per_anchor)
        total = term if total is None else dc.add(total, term)
    return total


def total_loss(primal: ForwardOutputs, dual: ForwardOutputs | None, features: dc.Tensor, motion: dc.Tensor,
               ccrl: list[dc.Tensor], weights: LossWeights) -> tuple[dict[str, dc.Tensor], dc.Tensor]:
    """Assemble the weighted objective against the target feature and
    flattened-motion rows; returns each term's tensor by name (for
    LossBundle.read) and the scalar node to backpropagate from.

    With no dual outputs (dual-path ablation) the dual, round-trip, and
    consistency terms are dropped and reported as 0. The terms are summed in
    LossWeights field order, skipping any whose weight is 0. `ccrl` holds
    the tensors of the target motion's ccrl_constants, read only when the
    consistency term is built.
    """
    terms = {"primal": mse(primal.prediction, motion)}
    if dual is not None:
        terms["dual"] = mse(dual.prediction, features)
        if weights.dr != 0.0:
            terms["dr"] = duality_regularizer(primal.audio_latent, dual.fused, primal.motion_latent, primal.fused)
        if weights.ccrl != 0.0:
            terms["ccrl"] = ccrl_total(primal.audio_latent, primal.motion_latent, dual.fused, primal.fused, ccrl)
    total = None
    for name, term in terms.items():
        lam = getattr(weights, name)
        if lam != 0.0:
            piece = dc.scalar_multiply(term, lam)
            total = piece if total is None else dc.add(total, piece)
    if total is None:
        raise ValueError("no loss terms to combine")
    return terms, total
