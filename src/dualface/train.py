"""Training loop, Adam optimizer, evaluation, and the ablation harness.

One optimizer step per sequence, epochs shuffled by a seeded generator.
A step whose data has the shapes of the step before it replays that step's
program, a diffcore.Program of one segment in the storage of the step's
tape; any other step traces anew. Checkpointing keeps whichever parameters
score the best validation lip-vertex error. A non-finite value aborts the step, before
anything is logged, at the primitive that produced it (NonFiniteLossError
"forward pass") or at Adam's checks of the gradients and of the update.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from dataclasses import dataclass, asdict, replace
from pathlib import Path

from . import diffcore as dc
from . import losses
from .data import (Count, FeatureSequence, Fraction, Index, LoadedDataset, MotionSequence, Positive, SequenceRecord,
                   check_field_types)
from .losses import CCRLConfig, LossBundle, LossWeights, total_loss
from .metrics import MetricReport, RegionSet, SequenceMetrics, build_report, fdd, lip_distance, lip_vertex_error
from .model import (
    ModelConfig,
    ModelParams,
    check_speaker,
    forward_dual,
    forward_primal,
    generate_motions,
    load_checkpoint,
    save_checkpoint,
)


class NonFiniteLossError(RuntimeError):
    """`step` numbers the failing step as train_log.jsonl does; the advice
    names train.grad_clip only when it is unset."""

    def __init__(self, term: str, step: int, grad_clip: float | None):
        self.term = term
        self.step = step
        advice = "lower the learning rate"
        if grad_clip is None:
            advice += " or enable train.grad_clip"
        super().__init__(f"non-finite value in {term!r} at step {step}; {advice}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: Positive = 1e-4
    beta1: Fraction = 0.9
    beta2: Fraction = 0.999
    eps: Positive = 1e-8
    epochs: Count = 100
    seed: Index = 0
    val_every: Count = 1
    grad_clip: Positive | None = None
    weights: LossWeights = LossWeights()
    ccrl: CCRLConfig = CCRLConfig()

    def validate(self):
        check_field_types(self)


def step_arrays(features: FeatureSequence, motion: MotionSequence, cfg: TrainConfig) -> list[np.ndarray]:
    """A sequence's step data: its feature rows, its flattened motion rows
    and, with the CCRL term on, the motion's ccrl_constants."""
    arrays = [features.values, motion.displacements.reshape(motion.frames, -1)]
    if cfg.weights.ccrl:
        arrays += losses.ccrl_constants(motion, cfg.ccrl)
    return arrays


def step_loss(params: ModelParams, speaker: int, leaves: list[dc.Tensor], cfg: TrainConfig):
    """The training objective over the tensors of step_arrays: the primal
    pass, the dual pass when a dual-side weight is nonzero, then total_loss;
    returns its terms by name and the total."""
    w = cfg.weights
    features, motion, *ccrl = leaves
    primal = forward_primal(params, features, speaker, motion)
    dual = forward_dual(params, motion, speaker, features) if w.dual or w.dr or w.ccrl else None
    return total_loss(primal, dual, features, motion, ccrl, w)


class _StepProgram(dc.Program):
    """One training step traced on a tape, replayed as one segment: the
    leaves of its step_arrays are rebound and the style-table slices
    select the speaker. Every replay writes its outputs into the tape's
    storage, over the traced step's."""

    def __init__(self, params: ModelParams, speaker: int, data: list[np.ndarray], cfg: TrainConfig):
        leaves = [dc.Tensor(a) for a in data]
        with dc.Tape() as self.tape:
            self.terms, self.total = step_loss(params, speaker, leaves, cfg)
        style = params["style_table"]
        super().__init__(self.tape.records, leaves, [r for r in self.tape.records
                                                     if r.kind is dc.PrimitiveKind.SLICE and r.inputs[0] is style])
        self.config = params.config

    def replay(self, data: list[np.ndarray], speaker: int):
        check_speaker(self.config, speaker)
        self.run([dc.Tensor(a).data for a in data], start=speaker, stop=speaker + 1)


@dataclass
class TrainState:
    """Optimizer state for one parameter store under one TrainConfig: the
    moments are laid out for that store, and the step program reads its
    parameters and builds that config's loss terms."""

    step: int = 0
    # (2, n) first and second moments, laid out like ModelParams.values,
    # and (2, n) scratch for the update, kept so that no step allocates;
    # both allocated by the first adam_step
    moments: np.ndarray | None = None
    scratch: np.ndarray | None = None
    best_val_lve: float = float("inf")
    # The last step's program, its tape's storage holding the step's
    # outputs; replayed by a next step of the same shapes
    program: _StepProgram | None = None


def _first_nonfinite(params: ModelParams, flat: np.ndarray) -> str:
    return next(name for name, view in params.views(flat).items() if not dc.all_finite(view))


def _clip_gradients(params: ModelParams, clip: float):
    """Scales the gradients to global norm `clip` when it is above it. The
    sum of squares is taken per parameter in registration order; if it
    overflows, the norm is that of the gradients divided by their largest
    magnitude, times that magnitude."""
    top = 1.0
    total = sum(float((p.gradient**2).sum()) for p in params.parameters())
    if not math.isfinite(total):
        top = float(np.abs(params.gradients).max())
        scaled = params.gradients / top
        total = float(np.dot(scaled, scaled))
    norm = np.sqrt(total)
    if norm > clip / top:
        params.gradients *= (clip / top) / norm


def adam_step(params: ModelParams, state: TrainState, cfg: TrainConfig):
    """Bias-corrected Adam over every registered parameter; shared tensors
    are registered once, so they get exactly one moment accumulator. It runs
    on the store's flat buffers, with the elementwise operations of a
    per-parameter update in the same order, so each value is the same.

    A non-finite gradient raises NonFiniteLossError naming its parameter
    before any parameter, moment or the step count changes. An update that
    would leave a non-finite value raises it too, naming the first such
    parameter, before any parameter is written.
    """
    g = params.gradients
    if not dc.all_finite(g):
        raise NonFiniteLossError(f"gradient of {_first_nonfinite(params, g)}", state.step + 1, cfg.grad_clip)
    if state.moments is None:
        state.moments, state.scratch = np.zeros((2, g.size)), np.empty((2, g.size))
    state.step += 1
    t = state.step
    if cfg.grad_clip is not None:
        _clip_gradients(params, cfg.grad_clip)
    m, v = state.moments
    tmp, update = state.scratch
    # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g^2
    np.multiply(m, cfg.beta1, out=m)
    np.multiply(g, 1.0 - cfg.beta1, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(v, cfg.beta2, out=v)
    np.multiply(g, g, out=tmp)
    np.multiply(tmp, 1.0 - cfg.beta2, out=tmp)
    np.add(v, tmp, out=v)
    # update = value - lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(v, 1.0 - cfg.beta2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.add(tmp, cfg.eps, out=tmp)
    np.divide(m, 1.0 - cfg.beta1**t, out=update)
    np.multiply(update, cfg.learning_rate, out=update)
    np.divide(update, tmp, out=update)
    np.subtract(params.values, update, out=update)
    if not dc.all_finite(update):
        raise NonFiniteLossError(f"update of {_first_nonfinite(params, update)}", t, cfg.grad_clip)
    params.values[...] = update
    params.zero_gradients()


def train_step(params: ModelParams, seq: SequenceRecord, cfg: TrainConfig, state: TrainState,
               arrays: list[np.ndarray] | None = None) -> LossBundle:
    """One Adam step on seq's step_arrays (`arrays`, if the caller holds
    them); the dual pass runs only when a dual-side loss weight is nonzero.

    A step whose data has the shapes of the last step's replays its
    program (TrainState.program) on its own data and speaker, with the
    same forward rules writing into the tape's storage, checked once, so
    every value and every error is the one a new trace would give (see
    diffcore.Program); any other step traces step_loss anew."""
    data = step_arrays(seq.features, seq.motion, cfg) if arrays is None else arrays
    program, state.program = state.program, None  # a step that raises drops it
    try:
        if program is not None and [a.shape for a in data] == [leaf.shape for leaf in program.leaves]:
            program.replay(data, seq.speaker)
        else:
            program = _StepProgram(params, seq.speaker, data, cfg)
    except dc.NonFiniteError as e:
        raise NonFiniteLossError("forward pass", state.step + 1, cfg.grad_clip) from e
    dc.backpropagate(program.tape, program.total)
    adam_step(params, state, cfg)
    state.program = program
    return LossBundle.read(program.terms, program.total)


def _score(dataset: LoadedDataset, rows: list[SequenceRecord], preds: list[MotionSequence]) -> MetricReport:
    """LVE/FDD of each prediction against its sequence's ground truth."""
    lips = RegionSet("lips", dataset.manifest.lip_indices)
    upper = RegionSet("upper", dataset.manifest.upper_indices)
    return build_report([SequenceMetrics(seq.name, lip_vertex_error(pred, seq.motion, lips), fdd(pred, seq.motion, upper))
                         for seq, pred in zip(rows, preds)])


def evaluate_params(
    params: ModelParams,
    dataset: LoadedDataset,
    split: str = "test",
    predict_gt: bool = False,
) -> MetricReport:
    """Autoregressive generation of the split's sequences (generate_motions,
    which decodes those of one length together), then LVE/FDD against
    ground truth. predict_gt swaps the prediction for the ground truth
    itself (the all-zero oracle row used to sanity-check the metric
    plumbing)."""
    rows = dataset.split(split)
    if not rows:
        raise ValueError(f"split {split!r} is empty")
    preds = ([seq.motion for seq in rows] if predict_gt
             else generate_motions(params, [seq.features for seq in rows], [seq.speaker for seq in rows]))
    return _score(dataset, rows, preds)


@dataclass
class TrainResult:
    checkpoint: str
    log_path: str
    state: TrainState


def _bundle_line(step: int, bundle: LossBundle) -> str:
    return json.dumps({"step": step, **asdict(bundle)})


def trainable_rows(dataset: LoadedDataset, cfg: TrainConfig) -> list[SequenceRecord]:
    """The train split, once it is known that cfg can train on it: the split
    is not empty and, with the CCRL loss on, every sequence has at least 2
    frames. Raises ValueError otherwise."""
    rows = dataset.split("train")
    if not rows:
        raise ValueError("train split is empty")
    if cfg.weights.ccrl:
        for seq in rows:
            if seq.motion.frames < 2:
                raise ValueError(f"training sequence {seq.name!r} has {seq.motion.frames} frame; "
                                 "the CCRL loss (train.weights.ccrl) needs at least 2")
    return rows


def train(dataset: LoadedDataset, model_cfg: ModelConfig, cfg: TrainConfig, out_dir) -> TrainResult:
    """Train from a fresh seeded initialization; returns the best-validation
    checkpoint path (final parameters if the val split is empty)."""
    cfg.validate()
    train_rows = trainable_rows(dataset, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(model_cfg, rng)
    state = TrainState()
    # Step data depends only on the sequence, so each training sequence's
    # step_arrays (with its CCRL motion kernel) are built at its first step
    # and kept only while a later epoch will use them.
    cache: dict[int, list[np.ndarray]] = {}
    val_rows = dataset.split("val")
    ckpt_path = out / "best.ckpt"
    log_path = out / "train_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_rows))
            for idx in order:
                seq = train_rows[idx]
                arrays = cache.pop(idx, None) or step_arrays(seq.features, seq.motion, cfg)
                if epoch + 1 < cfg.epochs:
                    cache[idx] = arrays
                bundle = train_step(params, seq, cfg, state, arrays)
                log.write(_bundle_line(state.step, bundle) + "\n")
            if epoch + 1 == cfg.epochs:
                state.program = None  # traced for this run's parameters only; freed before the last validation
            if val_rows and ((epoch + 1) % cfg.val_every == 0 or epoch + 1 == cfg.epochs):
                report = evaluate_params(params, dataset, "val")
                if report.lve < state.best_val_lve:
                    state.best_val_lve = report.lve
                    save_checkpoint(ckpt_path, params)
    if state.best_val_lve == float("inf"):
        save_checkpoint(ckpt_path, params)
    return TrainResult(str(ckpt_path), str(log_path), state)


# ---------------------------------------------------------------------------
# ablation harness

# Each variant and the loss weights it sets to 0; only share_transpose_codec ties the codec.
ABLATION_VARIANTS = {"full": (), "disable_dual": ("dual", "dr", "ccrl"), "disable_ccrl": ("ccrl",),
                     "share_transpose_codec": ()}


@dataclass
class AblationRow:
    variant: str
    seed: int
    lve: float
    fdd: float


@dataclass
class AblationResult:
    rows: list[AblationRow]
    table_path: str
    json_path: str
    csv_paths: list[str]

    def format(self) -> str:
        lines = [f"{'variant':<24} {'seed':>6} {'val LVE':>14} {'val FDD':>14}"]
        for r in self.rows:
            lines.append(f"{r.variant:<24} {r.seed:>6} {r.lve:>14.6e} {r.fdd:>14.6e}")
        return "\n".join(lines)


def variant_configs(model_cfg: ModelConfig, cfg: TrainConfig) -> dict[str, tuple[ModelConfig, TrainConfig]]:
    """Each ablation variant's configs, by name: the base configs with the
    variant's weights zeroed and the codec tied only for
    share_transpose_codec."""
    return {variant: (replace(model_cfg, share_transpose_codec=variant == "share_transpose_codec"),
                      replace(cfg, weights=replace(cfg.weights, **dict.fromkeys(zeroed, 0.0))))
            for variant, zeroed in ABLATION_VARIANTS.items()}


def ablate(dataset: LoadedDataset, model_cfg: ModelConfig, cfg: TrainConfig, seeds: list[int], out_dir) -> AblationResult:
    """Train every ablation variant on every seed and tabulate val metrics.

    Also writes one per-seed CSV tracing the upper-lip/lower-lip centroid
    distance over the first val sequence for ground truth and each variant.
    An empty val split scores and traces the train split instead. Data that
    some variant cannot train on raises ValueError before out_dir is created.
    """
    variants = variant_configs(model_cfg, cfg)
    for _, t_cfg in variants.values():
        trainable_rows(dataset, t_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lips = list(dataset.manifest.lip_indices)
    upper_lip = RegionSet("upper_lip", lips[: len(lips) // 2] or lips[:1])
    lower_lip = RegionSet("lower_lip", lips[len(lips) // 2 :] or lips[-1:])
    split = dataset.split("val") or dataset.split("train")
    probe = split[0]
    gt = lip_distance(probe.motion, dataset.template, upper_lip, lower_lip)
    names = ["gt", *variants]
    rows: list[AblationRow] = []
    csv_paths: list[str] = []
    for seed in seeds:
        curves = {"gt": gt}
        for variant, (m_cfg, t_cfg) in variants.items():
            result = train(dataset, m_cfg, replace(t_cfg, seed=seed), out / f"{variant}_seed{seed}")
            preds = generate_motions(load_checkpoint(result.checkpoint), [seq.features for seq in split],
                                     [seq.speaker for seq in split])
            report = _score(dataset, split, preds)
            rows.append(AblationRow(variant, seed, report.lve, report.fdd))
            curves[variant] = lip_distance(preds[0], dataset.template, upper_lip, lower_lip)
        csv_path = out / f"lip_distance_seed{seed}.csv"
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write("frame," + ",".join(names) + "\n")
            for i in range(probe.motion.frames):
                f.write(str(i) + "," + ",".join(f"{curves[n][i]:.9e}" for n in names) + "\n")
        csv_paths.append(str(csv_path))
    table_path = out / "ablation.txt"
    json_path = out / "ablation.json"
    result = AblationResult(rows, str(table_path), str(json_path), csv_paths)
    table_path.write_text(result.format() + "\n", encoding="utf-8")
    json_path.write_text(json.dumps([asdict(r) for r in rows], indent=2) + "\n", encoding="utf-8")
    return result


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
