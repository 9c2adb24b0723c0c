"""Command-line interface.

Subcommands: synth, train, eval, animate, lipread, gradcheck, ablate. A JSON
config file (sections: synthetic, model, train) merges over built-in
defaults, and repeated --set key.path=value flags override both. Unknown
keys are rejected. Every command prints its resolved configuration and the
tool version; artifact-producing commands write a run_manifest.json with the
config hash, seed, and a file inventory.

Exit codes: 0 success, 2 configuration error, 3 I/O or data error,
4 numeric failure during training, 5 verification (gradcheck) failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import __version__
from .data import (
    FileFormatError,
    SyntheticSpec,
    export_obj,
    generate_synthetic,
    load_dataset,
    load_features,
    load_motion,
    load_template,
    resample_features,
    save_features,
    save_motion,
    to_float32,
)
from .losses import CCRLConfig, LossWeights
from .model import ModelConfig, ModelParams, generate_audio, generate_motion, load_checkpoint
from .train import NonFiniteLossError, TrainConfig, ablate, evaluate_params, file_sha256, train, variant_configs
from .verify import run_gradcheck


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    """The dataclasses' defaults. The model section holds ModelConfig's
    defaulted fields plus max_frames, whose None means the longest sequence;
    audio_dim, vertex_count and n_speakers always come from the manifest."""
    model = {f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING}
    return {"synthetic": asdict(SyntheticSpec()), "model": {**model, "max_frames": None}, "train": asdict(TrainConfig())}


def _merge(base: dict, override: dict, path: str = ""):
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a section")
            _merge(base[key], value, here)
        else:
            if isinstance(value, dict):
                raise ConfigError(f"config key {here!r} is not a section")
            base[key] = value


def _apply_set(resolved: dict, assignment: str):
    """--set a.b.c=value merges {"a": {"b": {"c": value}}} over resolved; the
    value is parsed as JSON when it parses, and kept as text otherwise."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects key.path=value, got {assignment!r}")
    key_path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw
    if isinstance(value, dict):
        raise ConfigError(f"--set {key_path!r}: a value cannot be a JSON object")
    for part in reversed(key_path.strip().split(".")):
        value = {part: value}
    _merge(resolved, value)


def resolve_config(args) -> dict:
    resolved = default_config()
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {config_path}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"config file cannot be read: {e}") from e
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(resolved, raw)
    for assignment in getattr(args, "set", None) or []:
        _apply_set(resolved, assignment)
    seed = getattr(args, "seed", None)
    if seed is not None:
        resolved["synthetic"]["seed"] = seed
        resolved["train"]["seed"] = seed
    return resolved


def _print_resolved(command: str, resolved: dict):
    print(f"dualface {__version__} :: {command}")
    print("resolved config:")
    print(json.dumps(resolved, indent=2, sort_keys=True))


def _config_hash(resolved: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode("utf-8")).hexdigest()


def _write_run_manifest(out_dir: Path, command: str, resolved: dict, seed, files: list[Path]):
    inventory = {}
    for f in sorted(files):
        inventory[str(Path(f).relative_to(out_dir))] = file_sha256(f)
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config_sha256": _config_hash(resolved),
        "files": inventory,
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _validated(what: str, cls, fields: dict):
    """cls(**fields) after its validate(); a rejected value is a ConfigError."""
    try:
        obj = cls(**fields)
        obj.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {what}: {e}") from e
    return obj


def _train_config(section: dict) -> TrainConfig:
    nested = {"weights": LossWeights(**section["weights"]), "ccrl": CCRLConfig(**section["ccrl"])}
    return _validated("train config", TrainConfig, {**section, **nested})


def _model_config(section: dict, dataset) -> ModelConfig:
    """The model section plus the dimensions the dataset fixes; max_frames
    defaults to the longest sequence and may not be shorter than it."""
    longest = dataset.max_frames
    cfg = _validated("model config", ModelConfig, {
        **section,
        "max_frames": longest if section["max_frames"] is None else section["max_frames"],
        "audio_dim": dataset.audio_dim,
        "vertex_count": dataset.template.vertex_count,
        "n_speakers": dataset.manifest.speakers,
    })
    if cfg.max_frames < longest:
        raise ConfigError(f"invalid model config: max_frames={cfg.max_frames} is shorter than the longest sequence ({longest} frames)")
    return cfg


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args, resolved: dict) -> int:
    spec = _validated("synthetic spec", SyntheticSpec, resolved["synthetic"])
    out = Path(args.out)
    manifest = generate_synthetic(spec, out)
    files = [out / "manifest.json", out / manifest.template,
             *(out / name for e in manifest.entries for name in (e.features, e.motion))]
    _write_run_manifest(out, "synth", resolved, spec.seed, files)
    print(f"wrote {len(files)} dataset files under {out}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_train(args, resolved: dict) -> int:
    train_cfg = _train_config(resolved["train"])
    dataset = load_dataset(args.data)
    model_cfg = _model_config(resolved["model"], dataset)
    out = Path(args.out)
    result = train(dataset, model_cfg, train_cfg, out)
    _write_run_manifest(out, "train", resolved, train_cfg.seed, [Path(result.checkpoint), Path(result.log_path)])
    print(f"steps: {result.state.step}")
    print(f"best val LVE: {result.state.best_val_lve:.6e}")
    print(f"checkpoint: {result.checkpoint}")
    print(f"log: {result.log_path}")
    return 0


def _check_fits(params: ModelParams, checkpoint, source, frames: int = 0, speaker: int = 0, **widths):
    """Raises ValueError (a data error) naming `checkpoint` and `source` when
    the input's frame count, its largest speaker id, or a width in `widths`
    (audio_dim, vertex_count), does not fit the checkpoint's model."""
    c = params.config
    wrong = [f"{name} {got} where the checkpoint has {getattr(c, name)}"
             for name, got in widths.items() if got != getattr(c, name)]
    if frames > c.max_frames:
        wrong.append(f"{frames} frames where the checkpoint's max_frames is {c.max_frames}")
    if speaker >= c.n_speakers:
        wrong.append(f"speaker {speaker} where the checkpoint has {c.n_speakers} speakers")
    if wrong:
        raise ValueError(f"{source} does not fit checkpoint {checkpoint}: " + "; ".join(wrong))


def cmd_eval(args, resolved: dict) -> int:
    dataset = load_dataset(args.data)
    params = load_checkpoint(args.checkpoint)
    split = dataset.split(args.split)
    _check_fits(params, args.checkpoint, args.data, max((s.motion.frames for s in split), default=0),
                max((s.speaker for s in split), default=0), audio_dim=dataset.audio_dim,
                vertex_count=dataset.template.vertex_count)
    report = evaluate_params(params, dataset, args.split, predict_gt=args.predict_gt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "report.txt").write_text(report.format() + "\n", encoding="utf-8")
    _write_run_manifest(out, "eval", resolved, None, [out / "report.json", out / "report.txt"])
    print(report.format())
    return 0


def _checkpoint_for_speaker(args) -> ModelParams:
    """Loads --checkpoint, rejecting a --speaker it has no style row for;
    a negative one is rejected before the file is read."""
    if args.speaker < 0:
        raise ConfigError(f"--speaker must be >= 0, got {args.speaker}")
    params = load_checkpoint(args.checkpoint)
    if args.speaker >= params.config.n_speakers:
        raise ConfigError(f"--speaker {args.speaker} out of range: the checkpoint has {params.config.n_speakers} speakers")
    return params


def cmd_animate(args, resolved: dict) -> int:
    if args.obj_every is not None and args.obj_every < 1:
        raise ConfigError(f"--obj-every must be >= 1, got {args.obj_every}")
    if args.obj_every is not None and not args.template:
        raise ConfigError("--obj-every needs --template to resolve vertex positions")
    if args.frames is not None and args.frames < 2:
        raise ConfigError(f"--frames must be >= 2, got {args.frames}")
    if not 0 < to_float32(args.fps) < np.inf:
        raise ConfigError(f"--fps must be positive and finite in float32 storage, got {args.fps}")
    params = _checkpoint_for_speaker(args)
    if args.frames is not None and args.frames > params.config.max_frames:
        raise ConfigError(f"--frames {args.frames} exceeds the checkpoint's max_frames={params.config.max_frames}")
    features = load_features(args.features)
    if args.frames is not None:
        features = resample_features(features, args.frames)
    _check_fits(params, args.checkpoint, args.features, features.frames, audio_dim=features.dim)
    if args.template:
        template = load_template(args.template)
        _check_fits(params, args.checkpoint, args.template, vertex_count=template.vertex_count)
    motion = generate_motion(params, features, args.speaker, args.fps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    motion_path = out / "motion.bin"
    save_motion(motion_path, motion)
    files = [motion_path]
    if args.obj_every is not None:
        for t in range(0, motion.frames, args.obj_every):
            obj_path = out / f"frame{t:04d}.obj"
            export_obj(obj_path, template, motion, t)
            files.append(obj_path)
    _write_run_manifest(out, "animate", resolved, None, files)
    print(f"generated {motion.frames} frames -> {motion_path}")
    return 0


def cmd_lipread(args, resolved: dict) -> int:
    params = _checkpoint_for_speaker(args)
    motion = load_motion(args.motion)
    _check_fits(params, args.checkpoint, args.motion, motion.frames, vertex_count=motion.vertex_count)
    features = generate_audio(params, motion, args.speaker)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    feat_path = out / "features.bin"
    save_features(feat_path, features)
    _write_run_manifest(out, "lipread", resolved, None, [feat_path])
    print(f"read {features.frames} frames of {features.dim}-band features -> {feat_path}")
    return 0


def cmd_ablate(args, resolved: dict) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    train_cfg = _train_config(resolved["train"])
    dataset = load_dataset(args.data)
    model_cfg = _model_config(resolved["model"], dataset)
    for variant, (_, t_cfg) in variant_configs(model_cfg, train_cfg).items():
        try:
            t_cfg.validate()
        except ValueError as e:
            raise ConfigError(f"invalid train config of ablation variant {variant!r}: {e}") from e
    seeds = [train_cfg.seed + i for i in range(args.seeds)]
    out = Path(args.out)
    result = ablate(dataset, model_cfg, train_cfg, seeds, out)
    files = [Path(result.table_path), Path(result.json_path), *map(Path, result.csv_paths)]
    _write_run_manifest(out, "ablate", resolved, train_cfg.seed, files)
    print(result.format())
    full = {r.seed: r.lve for r in result.rows if r.variant == "full"}
    no_dual = {r.seed: r.lve for r in result.rows if r.variant == "disable_dual"}
    wins = sum(1 for s in full if no_dual[s] >= full[s])
    print(f"dual-path benefit: disable_dual val LVE >= full on {wins}/{len(full)} seeds")
    return 0


def cmd_gradcheck(args, resolved: dict) -> int:
    for flag in ("step", "tolerance"):
        value = getattr(args, flag)
        if not (value > 0 and np.isfinite(value)):
            raise ConfigError(f"--{flag} must be positive and finite, got {value}")
    ok, lines = run_gradcheck(args.scope, args.tolerance, args.step)
    for line in lines:
        print(line)
    print("gradcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 5


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualface", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dualface {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="JSON config file merged over defaults")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config value (repeatable)")
        if seed:
            p.add_argument("--seed", type=int, help="override synthetic.seed and train.seed")

    p = sub.add_parser("synth", help="generate the synthetic paired dataset")
    p.add_argument("--out", required=True)
    common(p, seed=True)

    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--data", required=True, help="manifest.json path")
    p.add_argument("--out", required=True)
    common(p, seed=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--predict-gt", action="store_true", help="score ground truth against itself (metric oracle)")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("animate", help="drive face motion from a feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--speaker", type=int, default=0)
    p.add_argument("--frames", type=int, help="resample features to this many frames first")
    p.add_argument("--fps", type=float, default=25.0)
    p.add_argument("--obj-every", type=int, help="export every Nth frame as OBJ (needs --template)")
    p.add_argument("--template", help="template file for OBJ export; checked against the checkpoint")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("lipread", help="recover audio features from motion")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--speaker", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference verification of gradients")
    p.add_argument("--scope", default="full", choices=["op", "block", "full"])
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    common(p)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=3, help="number of consecutive seeds starting at train.seed")
    p.add_argument("--out", required=True)
    common(p, seed=True)

    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "animate": cmd_animate,
    "lipread": cmd_lipread,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = resolve_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    _print_resolved(args.command, resolved)
    try:
        return _HANDLERS[args.command](args, resolved)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonFiniteLossError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except (FileFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # an array the given sizes or data ask for does not fit
        print("data error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
