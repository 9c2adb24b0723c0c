import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualface import cli
from dualface import diffcore as dc
from dualface.data import load_features, load_motion
from dualface.model import load_checkpoint
from dualface.train import file_sha256


# One gradcheck result line, as `gradcheck` prints it and the benchmark parses it.
CHECK_LINE = re.compile(r"^(PASS|FAIL) (.+): max rel err \S+ over (\d+) entries(?:, \d+ flagged)?$")


def run(argv):
    return cli.main([str(a) for a in argv])


def make_dataset(tmp_path, **overrides):
    out = tmp_path / "data"
    args = ["synth", "--out", out, "--set", "synthetic.n_speakers=2",
            "--set", "synthetic.n_sequences=6", "--set", "synthetic.frames=10",
            "--set", "synthetic.vertex_count=24", "--set", "synthetic.bands=6"]
    for k, v in overrides.items():
        args += ["--set", f"synthetic.{k}={v}"]
    assert run(args) == 0
    return out / "manifest.json"


SMALL_MODEL = [
    "--set", "model.d=16", "--set", "model.ff_dim=24",
    "--set", "model.fusion_heads=2", "--set", "model.self_heads=2",
    "--set", "model.squeeze_ratio=4",
]


def test_default_config_keys():
    cfg = cli.default_config()
    assert set(cfg) == {"synthetic", "model", "train"}
    assert cfg["train"]["weights"]["primal"] == 1.0
    assert cfg["model"]["d"] == 32
    assert cfg["model"]["share_transpose_codec"] is False
    assert "share_transpose_codec" not in cfg["train"]


def test_set_parsing_and_unknown_keys():
    cfg = cli.default_config()
    cli._apply_set(cfg, "train.learning_rate=0.01")
    assert cfg["train"]["learning_rate"] == 0.01
    cli._apply_set(cfg, "train.grad_clip=null")
    assert cfg["train"]["grad_clip"] is None
    cli._apply_set(cfg, "train.ccrl.anchor_weighting=kernel")
    assert cfg["train"]["ccrl"]["anchor_weighting"] == "kernel"
    with pytest.raises(cli.ConfigError):
        cli._apply_set(cfg, "train.bogus=1")
    with pytest.raises(cli.ConfigError):
        cli._apply_set(cfg, "no_equals_sign")
    with pytest.raises(cli.ConfigError):
        cli._apply_set(cfg, "train=5")  # section, not a value
    with pytest.raises(cli.ConfigError):
        cli._apply_set(cfg, "train.weights.nope=1")


def test_config_file_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 7, "weights": {"dual": 0.5}}}))

    class Args:
        config = str(path)
        set = ["train.seed=9"]
        seed = None

    resolved = cli.resolve_config(Args())
    assert resolved["train"]["epochs"] == 7
    assert resolved["train"]["weights"]["dual"] == 0.5
    assert resolved["train"]["seed"] == 9
    assert resolved["train"]["learning_rate"] == 1e-4  # untouched default

    path.write_text(json.dumps({"nonsense": {}}))
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(Args())
    path.write_text("{broken json")
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(Args())


def test_unknown_config_key_exits_2(tmp_path):
    assert run(["synth", "--out", tmp_path / "x", "--set", "synthetic.bogus=1"]) == 2


def test_missing_data_exits_3(tmp_path):
    assert run(["train", "--data", tmp_path / "nope.json", "--out", tmp_path / "out"]) == 3
    assert run(["eval", "--checkpoint", tmp_path / "no.ckpt", "--data", tmp_path / "nope.json",
                "--out", tmp_path / "e"]) == 3


_ANIMATE = ["animate", "--checkpoint", "no.ckpt", "--features", "no.bin", "--template", "no.bin", "--out", "out"]


@pytest.mark.parametrize("argv", [
    [*_ANIMATE, "--obj-every", "0"],
    [*_ANIMATE, "--obj-every", "-2"],
    ["synth", "--out", "out", "--seed", "-1"],
    ["train", "--data", "no.json", "--out", "out", "--seed", "-1"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.seed=-1"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.val_every=true"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.epochs=2.5"],
    ["synth", "--out", "out", "--set", "synthetic.frames=2.5"],
    [*_ANIMATE, "--speaker", "-1"],
    [*_ANIMATE, "--frames", "0"],
    [*_ANIMATE, "--frames", "1"],
    [*_ANIMATE, "--fps", "0"],
    [*_ANIMATE, "--fps", "nan"],
    ["lipread", "--checkpoint", "no.ckpt", "--motion", "no.bin", "--out", "out", "--speaker", "-1"],
    ["gradcheck", "--step", "0"],
    ["gradcheck", "--step", "nan"],
    ["gradcheck", "--step", "inf"],
    ["gradcheck", "--tolerance", "nan"],
    ["gradcheck", "--tolerance", "-1"],
    ["ablate", "--data", "no.json", "--out", "out", "--seeds", "0"],
    ["ablate", "--data", "no.json", "--out", "out", "--seeds", "-2"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.learning_rate=true"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.weights.ccrl=true"],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.ccrl.sigma=true"],
    ["gradcheck", "--scope", "op", "--config", "."],
    ["gradcheck", "--scope", "op", "--config", "latin1.json"],
    ["train", "--data", "no.json", "--out", "out", *(f"--set=train.weights.{k}=0" for k in ("primal", "dual", "dr", "ccrl"))],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.epochs=" + "9" * 5000],
    ["train", "--data", "no.json", "--out", "out", "--set", "train.epochs=" + "[" * 100_000],
    *(["train", "--data", "no.json", "--out", "out", "--set", f"train.{key}=1" + "0" * 400]
      for key in ("learning_rate", "weights.ccrl", "ccrl.sigma")),
    *(["train", "--data", "no.json", "--out", "out", "--set", f"train.{key}=Infinity"]
      for key in ("learning_rate", "eps", "grad_clip", "ccrl.sigma")),
    ["synth", "--out", "out", "--set", "synthetic.noise_scale=NaN"],
    ["synth", "--out", "out", "--set", "synthetic.noise_scale=Infinity"],
    ["synth", "--out", "out", "--set", "synthetic.n_sequences=1"],
    ["synth", "--out", "out", "--set", "synthetic.n_sequences=2"],
])
def test_bad_arguments_exit_2(tmp_path, monkeypatch, argv):
    """Bad command-line values are configuration errors, caught before any
    file is read or written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b'{"model": {"d": "\xe9"}}')
    assert run(argv) == 2
    assert not (tmp_path / "out").exists()


def test_invalid_model_dims_exit_2(tmp_path):
    """The data has 10 frames, so a max_frames below that is rejected too."""
    manifest = make_dataset(tmp_path)
    for setting in ("model.d=30",  # 30 % 4 heads != 0
                    "model.max_frames=2.5", "model.max_frames=0", "model.max_frames=false",
                    'model.max_frames=""', "model.max_frames=[]", "model.max_frames=5"):
        assert run(["train", "--data", manifest, "--out", tmp_path / "run", "--set", setting]) == 2, setting
        assert not (tmp_path / "run").exists(), setting


def _keys(node: dict, prefix: str):
    """Every key path under prefix: sections and their values."""
    for key, value in node.items():
        yield f"{prefix}.{key}"
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}.{key}")


SET_KEYS = [*_keys(cli.default_config()["train"], "train"), *_keys(cli.default_config()["model"], "model"),
            *_keys(cli.default_config()["synthetic"], "synthetic")]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text() | st.integers()
    | st.integers(min_value=-(1 << 1100), max_value=1 << 1100),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6,
)


class _Trained(Exception):
    pass


def _finite(node) -> bool:
    """Whether every float in a config's asdict() is finite."""
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    return not isinstance(node, float) or math.isfinite(node)


def _train_stub(dataset, model_cfg, train_cfg, out_dir):
    assert model_cfg.max_frames >= dataset.max_frames
    assert _finite(asdict(train_cfg))
    raise _Trained


def _synth_stub(spec, out_dir):
    assert _finite(asdict(spec)) and spec.n_sequences >= 3
    raise _Trained


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("tiny"))


@pytest.mark.parametrize("key", SET_KEYS)
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(raw=JSON_VALUES.map(json.dumps) | st.text())
@example(raw="NaN")  # the drawn values are rarely scalars, so the edges are given
@example(raw="Infinity")
@example(raw="-Infinity")
@example(raw="2")
def test_set_any_value_exits_2_or_trains(tiny_manifest, key, raw):
    """Whatever JSON, or raw text, --set gives a train.*, model.* or
    synthetic.* key, `train` or `synth` exits 2 or reaches training or
    generation with validated configs whose floats are all finite: it never
    exits 1 and raises nothing."""
    out = tiny_manifest.parent / "run"
    command = ["synth"] if key.startswith("synthetic.") else ["train", "--data", tiny_manifest]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "train", _train_stub)
        mp.setattr(cli, "generate_synthetic", _synth_stub)
        try:
            rc = run([*command, "--out", out, "--set", f"{key}={raw}"])
        except _Trained:
            return
    assert rc == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small dataset (2 speakers) and a checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("trained")
    manifest = make_dataset(tmp_path)
    assert run(["train", "--data", manifest, "--out", tmp_path / "run", "--set", "train.epochs=1", *SMALL_MODEL]) == 0
    return manifest, tmp_path / "run" / "best.ckpt"


def test_speaker_outside_checkpoint_exits_2(trained, tmp_path):
    manifest, ckpt = trained
    assert run(["animate", "--checkpoint", ckpt, "--features", manifest.parent / "seq000_features.bin",
                "--speaker", 2, "--out", tmp_path / "anim"]) == 2
    assert run(["lipread", "--checkpoint", ckpt, "--motion", manifest.parent / "seq000_motion.bin",
                "--speaker", 99, "--out", tmp_path / "lips"]) == 2
    assert run(["animate", "--checkpoint", ckpt, "--features", manifest.parent / "seq000_features.bin",
                "--frames", 11, "--out", tmp_path / "anim"]) == 2  # max_frames is 10
    assert not (tmp_path / "anim").exists() and not (tmp_path / "lips").exists()


def test_cut_checkpoint_exits_3(trained, tmp_path, capsys):
    manifest, ckpt = trained
    raw = ckpt.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in (6, 100, len(raw) // 2, len(raw) - 1):
        cut.write_bytes(raw[:n])
        assert run(["lipread", "--checkpoint", cut, "--motion", manifest.parent / "seq000_motion.bin",
                    "--out", tmp_path / "lips"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_synth_writes_manifest_and_inventory(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    assert manifest.exists()
    run_manifest = json.loads((manifest.parent / "run_manifest.json").read_text())
    assert run_manifest["command"] == "synth"
    assert run_manifest["seed"] == 0
    assert "manifest.json" in run_manifest["files"]
    assert any(k.endswith("_motion.bin") for k in run_manifest["files"])
    for rel, digest in run_manifest["files"].items():
        assert file_sha256(manifest.parent / rel) == digest
    out = capsys.readouterr().out
    assert "resolved config" in out


def test_full_pipeline(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    rc = run(["train", "--data", manifest, "--out", tmp_path / "run",
              "--set", "train.epochs=2", *SMALL_MODEL])
    assert rc == 0
    ckpt = tmp_path / "run" / "best.ckpt"
    assert ckpt.exists()
    assert (tmp_path / "run" / "train_log.jsonl").exists()
    run_manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert set(run_manifest["files"]) == {"best.ckpt", "train_log.jsonl"}

    rc = run(["eval", "--checkpoint", ckpt, "--data", manifest, "--split", "val",
              "--out", tmp_path / "ev"])
    assert rc == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert {"lve", "fdd", "fdd_abs", "per_sequence"} <= set(report)

    rc = run(["eval", "--checkpoint", ckpt, "--data", manifest, "--split", "val",
              "--predict-gt", "--out", tmp_path / "ev0"])
    assert rc == 0
    report0 = json.loads((tmp_path / "ev0" / "report.json").read_text())
    assert report0["lve"] == 0.0 and report0["fdd"] == 0.0

    feats_file = manifest.parent / "seq000_features.bin"
    rc = run(["animate", "--checkpoint", ckpt, "--features", feats_file, "--speaker", 1,
              "--template", manifest.parent / "template.bin", "--obj-every", 4,
              "--out", tmp_path / "anim"])
    assert rc == 0
    motion = load_motion(tmp_path / "anim" / "motion.bin")
    assert motion.frames == 10
    objs = sorted(p.name for p in (tmp_path / "anim").glob("*.obj"))
    assert objs == ["frame0000.obj", "frame0004.obj", "frame0008.obj"]

    rc = run(["lipread", "--checkpoint", ckpt, "--motion", manifest.parent / "seq001_motion.bin",
              "--speaker", 0, "--out", tmp_path / "lips"])
    assert rc == 0
    feats = load_features(tmp_path / "lips" / "features.bin")
    assert feats.frames == 10 and feats.dim == 6


def test_tied_codec_set_in_model_section(tmp_path):
    manifest = make_dataset(tmp_path)
    assert run(["train", "--data", manifest, "--out", tmp_path / "run", "--set", "train.epochs=1",
                "--set", "model.share_transpose_codec=true", *SMALL_MODEL]) == 0
    assert load_checkpoint(tmp_path / "run" / "best.ckpt").config.share_transpose_codec
    assert run(["train", "--data", manifest, "--out", tmp_path / "old",
                "--set", "train.share_transpose_codec=true"]) == 2


def test_animate_frames_resample(tmp_path):
    manifest = make_dataset(tmp_path)
    run(["train", "--data", manifest, "--out", tmp_path / "run",
         "--set", "train.epochs=1", *SMALL_MODEL])
    rc = run(["animate", "--checkpoint", tmp_path / "run" / "best.ckpt",
              "--features", manifest.parent / "seq000_features.bin",
              "--frames", 7, "--out", tmp_path / "anim"])
    assert rc == 0
    assert load_motion(tmp_path / "anim" / "motion.bin").frames == 7


def test_animate_obj_needs_template(tmp_path):
    manifest = make_dataset(tmp_path)
    run(["train", "--data", manifest, "--out", tmp_path / "run",
         "--set", "train.epochs=1", *SMALL_MODEL])
    rc = run(["animate", "--checkpoint", tmp_path / "run" / "best.ckpt",
              "--features", manifest.parent / "seq000_features.bin",
              "--obj-every", 2, "--out", tmp_path / "anim"])
    assert rc == 2


def test_train_determinism_via_cli(tmp_path):
    manifest = make_dataset(tmp_path)
    args = ["train", "--data", manifest, "--set", "train.epochs=2", "--seed", 5, *SMALL_MODEL]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    ha = file_sha256(tmp_path / "a" / "best.ckpt")
    hb = file_sha256(tmp_path / "b" / "best.ckpt")
    assert ha == hb
    ma = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
    assert ma["config_sha256"] == mb["config_sha256"]
    assert ma["files"] == mb["files"]


def test_gradcheck_op_scope(capsys):
    """The op scope checks every primitive kind of the catalog, once."""
    assert run(["gradcheck", "--scope", "op"]) == 0
    names = [m.group(2) for m in map(CHECK_LINE.match, capsys.readouterr().out.splitlines()) if m]
    assert sorted(names) == sorted(f"op {k.value}" for k in dc.PrimitiveKind)


# Entries each check of `gradcheck --scope full` perturbs: every parameter its
# builder reads, found on the tape.
FULL_SCOPE_ENTRIES = {
    "op matmul": 20, "op add": 24, "op subtract": 24, "op elementwise-multiply": 24,
    "op scalar-multiply": 12, "op relu": 12, "op sigmoid": 12, "op tanh": 12, "op exp": 12,
    "op log": 12, "op softmax-per-row": 15, "op concat-last-axis": 15, "op slice": 20,
    "op transpose-last-two": 20, "op sum": 20, "op mean": 20, "op broadcast-row": 4,
    "op layer-normalize-per-row": 15,
    "block encode_audio": 95, "block encode_motion": 172,
    "block self_attend primal": 280, "block self_attend dual": 280,
    "block speaker_modulate primal": 148, "block speaker_modulate dual": 148,
    "block cross_attend primal": 516, "block cross_attend dual": 516,
    "loss mse": 36, "loss smooth_l1": 36, "loss duality_regularizer": 72, "loss ccrl_direction": 36,
    "loss ccrl_direction kernel anchors sigma=0.5": 36, "loss ccrl_total": 72,
    "tied codec decode primal": 132, "tied codec decode dual": 141,
    "full model + all losses": 1977,
}


def test_gradcheck_full_scope_lines():
    """Every line of the full scope has the format the benchmark parses, and
    each check perturbs every parameter its builder reads."""
    ok, lines = cli.run_gradcheck("full", tolerance=1e-4, step=1e-5)
    matches = [CHECK_LINE.match(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    assert {m.group(2): int(m.group(3)) for m in matches} == FULL_SCOPE_ENTRIES
    assert len(lines) == len(FULL_SCOPE_ENTRIES)
    assert ok and all(m.group(1) == "PASS" for m in matches)


def test_gradcheck_reports_failure_as_5(monkeypatch):
    real = dc.check_gradients

    def sabotaged(parameters, build, tolerance=1e-4, step=1e-5, keep_worst=10):
        return real(parameters, build, tolerance=1e-22, step=step, keep_worst=keep_worst)

    monkeypatch.setattr(dc, "check_gradients", sabotaged)
    assert run(["gradcheck", "--scope", "op"]) == 5


def test_ablate_cli(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    rc = run(["ablate", "--data", manifest, "--seeds", 2, "--out", tmp_path / "abl",
              "--set", "train.epochs=1", *SMALL_MODEL])
    assert rc == 0
    assert (tmp_path / "abl" / "ablation.txt").exists()
    assert (tmp_path / "abl" / "ablation.json").exists()
    assert (tmp_path / "abl" / "lip_distance_seed0.csv").exists()
    assert (tmp_path / "abl" / "lip_distance_seed1.csv").exists()
    out = capsys.readouterr().out
    assert "dual-path benefit" in out


def test_ablate_invalid_variant_exits_2_before_writing(tmp_path):
    """With the primal weight at 0, disable_dual zeroes every weight; that is
    a configuration error before any variant trains."""
    manifest = make_dataset(tmp_path)
    rc = run(["ablate", "--data", manifest, "--seeds", 1, "--out", tmp_path / "abl",
              "--set", "train.epochs=1", "--set", "train.weights.primal=0", *SMALL_MODEL])
    assert rc == 2
    assert not (tmp_path / "abl").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "dualface" in capsys.readouterr().out
