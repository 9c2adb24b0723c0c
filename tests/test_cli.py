import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualface import cli
from dualface import diffcore as dc
from dualface.data import FeatureSequence, load_features, load_manifest, load_motion, load_template, save_features
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


def test_synth_over_an_earlier_dataset_leaves_no_stale_file(tmp_path):
    """synth into a directory holding a larger earlier dataset removes the
    sequence files that only the earlier manifest names; files that no
    manifest names stay."""
    out = make_dataset(tmp_path, n_sequences=12).parent
    (out / "notes.txt").write_text("kept")
    (out / "seq099_motion.bin").write_bytes(b"kept")
    manifest = load_manifest(make_dataset(tmp_path, n_sequences=4))
    named = {name for e in manifest.entries for name in (e.features, e.motion)}
    assert len(named) == 8
    assert {f.name for f in out.iterdir()} == named | {
        "manifest.json", "template.bin", "run_manifest.json", "notes.txt", "seq099_motion.bin"}


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


def test_config_file_nested_too_deep_exits_2(tmp_path, capsys):
    """A config file nested deeper than the JSON decoder recurses is
    malformed JSON, as --set treats it, not a crash."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["gradcheck", "--scope", "op", "--config", deep]) == 2
    assert capsys.readouterr().err.startswith("config error: config file is not valid JSON")


@pytest.mark.parametrize("content, message", [
    pytest.param(None, "config file not found: {path}", id="missing"),
    pytest.param("[]", "config file must hold a JSON object", id="not_an_object"),
    pytest.param('{"train": {"seed": {"x": 1}}}', "config key 'train.seed' is not a section", id="value_as_section"),
])
def test_config_file_errors_exit_2(tmp_path, capsys, content, message):
    """A config file that is missing, is no JSON object, or gives a value a
    section exits 2 with its own message, before the command runs."""
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert run(["gradcheck", "--scope", "op", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"


@pytest.mark.parametrize("case, message", [
    ("eval_without_val", "split 'val' is empty"),
    ("train_without_train", "train split is empty"),
    ("template_one_vertex_more", "seq000_motion.bin: vertex count differs from template"),
])
def test_data_errors_exit_3(trained, tmp_path, capsys, case, message):
    """eval of an empty split, train without training sequences, and
    motion with one vertex fewer than the template exit 3 and write nothing."""
    manifest, ckpt = trained
    data = tmp_path / "data"
    shutil.copytree(manifest.parent, data)
    raw = json.loads((data / "manifest.json").read_text())
    gone = {"eval_without_val": "val", "train_without_train": "train"}.get(case)
    raw["entries"] = [e for e in raw["entries"] if e["split"] != gone]
    (data / "manifest.json").write_text(json.dumps(raw))
    if case == "template_one_vertex_more":
        wider = make_dataset(tmp_path / "wider", vertex_count=25)
        shutil.copy(wider.parent / "template.bin", data / "template.bin")
    out = tmp_path / "out"
    if case == "eval_without_val":
        argv = ["eval", "--checkpoint", ckpt, "--split", "val"]
    else:
        argv = ["train", *SMALL_MODEL]
    assert run([*argv, "--data", data / "manifest.json", "--out", out]) == 3
    assert capsys.readouterr().err.endswith(f"data error: {message}\n")
    assert not out.exists()


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
    [*_ANIMATE, "--fps", "1e308"],  # float32 storage makes it inf
    [*_ANIMATE, "--fps", "1e-50"],  # and this 0
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


def _load_written(path: Path):
    """Reads one file a command wrote back the way its consumer would."""
    if path.name == "template.bin":
        load_template(path)
    elif path.name.endswith("features.bin"):
        load_features(path)
    elif path.name.endswith("motion.bin"):
        load_motion(path)
    elif path.name == "manifest.json":
        load_manifest(path)
    elif path.suffix == ".json":
        json.loads(path.read_text(encoding="utf-8"))
    elif path.suffix == ".obj":
        rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
        assert rows and all(r[0] == "v" and len(r) == 4 and all(math.isfinite(float(x)) for x in r[1:]) for r in rows)
    else:
        assert path.suffix == ".txt", path
        path.read_text(encoding="utf-8")


def test_synth_values_float32_cannot_hold_exit_3(tmp_path):
    """noise_scale=1e300 makes finite float64 features that float32 storage
    cannot hold: synth exits 3, and every file it did write loads."""
    out = tmp_path / "data"
    assert run(["synth", "--out", out, "--set", "synthetic.noise_scale=1e300"]) == 3
    for path in out.iterdir():
        _load_written(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validation_overflow_exits_4(tmp_path, capsys):
    """A learning rate of 1e300 leaves one step's weights finite, but the
    validation decode overflows: that is a numeric failure (exit 4, with
    the learning-rate advice), not a data error, and no checkpoint is
    written."""
    manifest = make_dataset(tmp_path, n_sequences=3)
    out = tmp_path / "run"
    assert run(["train", "--data", manifest, "--out", out, "--set", "train.learning_rate=1e300",
                "--set", "train.epochs=1"]) == 4
    err = capsys.readouterr().err
    assert "numeric failure: non-finite value in 'validation' at step 1; lower the learning rate" in err
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 1
    assert not (out / "best.ckpt").exists()


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

def _json_containers(children):
    # A named function: Hypothesis reads a lambda's source when the test runs.
    return st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text() | st.integers()
    | st.integers(min_value=-(1 << 1100), max_value=1 << 1100),
    _json_containers,
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


def test_motion_holding_nan_exits_3(trained, tmp_path, capsys):
    """lipread of a DTMO file whose values hold a NaN exits 3, names the
    file, and writes nothing."""
    manifest, ckpt = trained
    motion = tmp_path / "nan_motion.bin"
    raw = bytearray((manifest.parent / "seq000_motion.bin").read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    motion.write_bytes(bytes(raw))
    assert run(["lipread", "--checkpoint", ckpt, "--motion", motion, "--out", tmp_path / "lips"]) == 3
    assert capsys.readouterr().err == f"i/o error: {motion}: displacements must be finite\n"
    assert not (tmp_path / "lips").exists()


def test_feature_files_with_different_band_counts_exit_3(trained, tmp_path, capsys):
    """A feature file whose band count differs from the first sequence's is
    a data error when the dataset loads: train and eval exit 3, name the
    file, and write nothing."""
    _, ckpt = trained
    manifest = make_dataset(tmp_path)
    odd = next(e.features for e in load_manifest(manifest).entries if e.split == "val")
    save_features(manifest.parent / odd, FeatureSequence(load_features(manifest.parent / odd).values[:, :5]))
    assert run(["train", "--data", manifest, "--out", tmp_path / "run", "--set", "train.epochs=2", *SMALL_MODEL]) == 3
    assert run(["eval", "--checkpoint", ckpt, "--data", manifest, "--split", "val", "--out", tmp_path / "eval"]) == 3
    err = capsys.readouterr().err
    assert err.count(f"{odd}: 5 feature bands") == 2, err
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_ccrl_sigma_whose_square_underflows_exits_2(tmp_path, capsys):
    """A CCRL bandwidth whose 2*sigma^2 is 0 would make the motion kernel's
    diagonal 0/0: it is a config error, found before anything is written.
    A small sigma whose square is still above 0 trains."""
    manifest = make_dataset(tmp_path)
    argv = ["train", "--data", manifest, "--out", tmp_path / "run", "--set", "train.epochs=1", *SMALL_MODEL]
    for sigma in ("1e-300", "5e-324"):
        assert run([*argv, "--set", f"train.ccrl.sigma={sigma}"]) == 2, sigma
        assert not (tmp_path / "run").exists(), sigma
    assert "2*sigma^2 is not 0" in capsys.readouterr().err
    assert run([*argv, "--set", "train.ccrl.sigma=1e-150"]) == 0


@pytest.mark.parametrize("message", [
    pytest.param("", id="bare"),
    pytest.param("Unable to allocate 14.9 EiB for an array with shape (2000000000, 1000000000)", id="numpy"),
])
def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys, message):
    """An allocation that does not fit in memory is a data error: one
    stderr line and exit 3, not a traceback."""
    def allocate(spec, out_dir):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_synthetic", allocate)
    assert run(["synth", "--out", tmp_path / "data"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory") and message in err and err.count("\n") == 1, err


def test_one_frame_training_sequence_needs_ccrl_off(tmp_path, capsys):
    """CCRL contrasts frames, so with train.weights.ccrl nonzero a one-frame
    training sequence exits 3, named, before the run directory exists; with
    train.weights.ccrl=0 the same data trains."""
    manifest = make_dataset(tmp_path, frames=1)
    first = next(Path(e.features).stem for e in load_manifest(manifest).entries if e.split == "train")
    argv = ["train", "--data", manifest, "--set", "train.epochs=1", *SMALL_MODEL]
    assert run([*argv, "--out", tmp_path / "run"]) == 3
    assert f"training sequence {first!r} has 1 frame" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert run([*argv, "--out", tmp_path / "run", "--set", "train.weights.ccrl=0"]) == 0
    assert (tmp_path / "run" / "best.ckpt").exists()


def test_ablate_one_frame_data_needs_ccrl_off(tmp_path, capsys):
    """ablate checks that every variant can train on the data before it
    creates --out: with CCRL on, one-frame sequences exit 3 and write
    nothing; with train.weights.ccrl=0 every variant trains."""
    manifest = make_dataset(tmp_path, frames=1)
    argv = ["ablate", "--data", manifest, "--seeds", 1, "--out", tmp_path / "abl", "--set", "train.epochs=1",
            *SMALL_MODEL]
    assert run(argv) == 3
    assert "has 1 frame" in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()
    assert run([*argv, "--set", "train.weights.ccrl=0"]) == 0
    assert (tmp_path / "abl" / "ablation.json").exists()


def test_input_that_does_not_fit_the_checkpoint_exits_3(trained, tmp_path, capsys):
    """eval, animate and lipread compare the checkpoint's widths and
    max_frames (and eval its split's speaker ids) with their input before
    generating: a mismatch exits 3, names both files, and writes nothing."""
    _, ckpt = trained  # 6 bands, 24 vertices, max_frames 10, 2 speakers
    narrow = make_dataset(tmp_path / "narrow", bands=5, vertex_count=18)
    long = make_dataset(tmp_path / "long", frames=30)
    many = make_dataset(tmp_path / "many", n_speakers=6)  # the val split's one sequence is speaker 4
    bands, vertices = "audio_dim 5 where the checkpoint has 6", "vertex_count 18 where the checkpoint has 24"
    frames = "30 frames where the checkpoint's max_frames is 10"
    for manifest, wrong in ((narrow, {"eval": f"{bands}; {vertices}", "animate": bands, "lipread": vertices}),
                            (long, dict.fromkeys(("eval", "animate", "lipread"), frames)),
                            (many, {"eval": "speaker 4 where the checkpoint has 2 speakers"})):
        features, motion = manifest.parent / "seq000_features.bin", manifest.parent / "seq000_motion.bin"
        for argv, source in (
            (["eval", "--data", manifest, "--split", "val"], manifest),
            (["animate", "--features", features], features),
            (["lipread", "--motion", motion], motion),
        ):
            if argv[0] not in wrong:
                continue
            out = tmp_path / argv[0]
            assert run([*argv, "--checkpoint", ckpt, "--out", out]) == 3
            err = capsys.readouterr().err
            assert f"data error: {source} does not fit checkpoint {ckpt}: {wrong[argv[0]]}\n" in err, err
            assert not out.exists()
    assert run(["animate", "--features", features, "--frames", 10, "--checkpoint", ckpt,
                "--out", tmp_path / "animate"]) == 0  # resampled to fit


# The checkpoint has 2 speakers and max_frames 10; each strategy mixes in valid values.
SPEAKER = st.integers(0, 1) | st.integers(-2, 3)
OPTIONAL_INT = st.none() | st.integers(-3, 14)
FPS = (st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 1e-50, 0.0, -1.0, 3.4e38, 1e-45])
       | st.floats(1e-3, 1e3) | st.floats())


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(command=st.sampled_from(["animate", "animate", "lipread", "eval"]), speaker=SPEAKER, frames=OPTIONAL_INT,
       fps=FPS, obj_every=OPTIONAL_INT, template=st.booleans(), split=st.sampled_from(["train", "val", "test", "all"]))
@example(command="animate", speaker=0, frames=None, fps=1e308, obj_every=None, template=False, split="test")
@example(command="animate", speaker=0, frames=None, fps=1e-50, obj_every=None, template=False, split="test")
def test_generation_arguments_exit_0_2_or_3(trained, tmp_path_factory, command, speaker, frames, fps, obj_every,
                                            template, split):
    """Whatever --speaker, --frames, --fps, --obj-every and --split hold,
    animate, lipread and eval exit 0, 2 or 3 without a traceback; exit 2
    writes nothing, and every file an exit 0 writes loads."""
    manifest, ckpt = trained
    out = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())) / "out"
    argv = [command, "--checkpoint", ckpt, "--out", out]
    if command == "animate":
        argv += ["--features", manifest.parent / "seq000_features.bin", "--speaker", speaker, "--fps", fps]
        argv += ["--frames", frames] * (frames is not None) + ["--obj-every", obj_every] * (obj_every is not None)
        argv += ["--template", manifest.parent / "template.bin"] * template
    elif command == "lipread":
        argv += ["--motion", manifest.parent / "seq001_motion.bin", "--speaker", speaker]
    else:
        argv += ["--data", manifest, "--split", split]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            rc = run(argv)
        except SystemExit as e:  # argparse rejecting a value
            rc = e.code
    assert rc in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if rc == 2:
        assert not out.exists()
    elif rc == 0:
        for path in out.iterdir():
            _load_written(path)


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


def test_synth_inventories_only_the_files_it_wrote(tmp_path, capsys):
    """A second synth into the same directory, with fewer sequences, counts
    and inventories the 10 files of its own dataset, not the stale ones."""
    make_dataset(tmp_path, n_sequences=12)
    capsys.readouterr()
    manifest = make_dataset(tmp_path, n_sequences=4)
    assert "wrote 10 dataset files" in capsys.readouterr().out
    written = {"manifest.json", "template.bin", *(f"seq{i:03d}_{kind}.bin" for i in range(4)
                                                  for kind in ("features", "motion"))}
    assert set(json.loads((manifest.parent / "run_manifest.json").read_text())["files"]) == written


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


def test_animate_checks_template_before_writing(trained, tmp_path, capsys):
    """A --template that is missing, or whose vertex count differs from the
    checkpoint's, exits 3 before anything is generated: no --out directory."""
    _, ckpt = trained  # 24 vertices
    narrow = make_dataset(tmp_path / "narrow", vertex_count=18)
    argv = ["animate", "--checkpoint", ckpt, "--features", narrow.parent / "seq000_features.bin",
            "--obj-every", 2, "--out", tmp_path / "anim"]
    template = narrow.parent / "template.bin"
    assert run([*argv, "--template", template]) == 3
    err = capsys.readouterr().err
    assert f"{template} does not fit checkpoint {ckpt}: vertex_count 18 where the checkpoint has 24" in err, err
    assert run([*argv, "--template", tmp_path / "missing.bin"]) == 3
    assert not (tmp_path / "anim").exists()


def test_animate_checks_template_without_obj_export(trained, tmp_path, capsys):
    """A --template is read and checked even when no OBJ frame is exported:
    a mismatched or missing one exits 3 with no --out directory, and a
    fitting one writes the same motion as no template at all."""
    manifest, ckpt = trained  # 24 vertices
    narrow = make_dataset(tmp_path / "narrow", vertex_count=18)
    argv = ["animate", "--checkpoint", ckpt, "--features", manifest.parent / "seq000_features.bin"]
    template = narrow.parent / "template.bin"
    assert run([*argv, "--template", template, "--out", tmp_path / "anim"]) == 3
    assert "vertex_count 18 where the checkpoint has 24" in capsys.readouterr().err
    assert run([*argv, "--template", tmp_path / "missing.bin", "--out", tmp_path / "anim"]) == 3
    assert not (tmp_path / "anim").exists()
    assert run([*argv, "--template", manifest.parent / "template.bin", "--out", tmp_path / "fit"]) == 0
    assert run([*argv, "--out", tmp_path / "plain"]) == 0
    assert (tmp_path / "fit" / "motion.bin").read_bytes() == (tmp_path / "plain" / "motion.bin").read_bytes()


def test_python_m_dualface_runs_the_cli(tmp_path):
    """`python -m dualface` from a source checkout runs the same CLI."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "dualface", "gradcheck", "--scope", "op"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "gradcheck: PASS"


@pytest.mark.parametrize("index", [pytest.param(24, id="vertex_count"), pytest.param(10**30, id="past_int64")])
def test_region_index_past_the_template_exits_3(trained, tmp_path, capsys, index):
    """A manifest region index at or past the template's vertex count, even
    one too large for int64, is a data error for train and eval: exit 3."""
    _, ckpt = trained
    manifest = make_dataset(tmp_path)  # 24 vertices
    raw = json.loads(manifest.read_text())
    raw["lip_indices"].append(index)
    manifest.write_text(json.dumps(raw))
    assert run(["train", "--data", manifest, "--out", tmp_path / "run", "--set", "train.epochs=1", *SMALL_MODEL]) == 3
    assert run(["eval", "--checkpoint", ckpt, "--data", manifest, "--split", "val", "--out", tmp_path / "eval"]) == 3
    assert capsys.readouterr().err.count("region indices exceed template vertex count") == 2
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


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
    """The op scope checks every primitive kind of the catalog once, and
    matmul once more, of a matrix by a stack of two."""
    assert run(["gradcheck", "--scope", "op"]) == 0
    names = [m.group(2) for m in map(CHECK_LINE.match, capsys.readouterr().out.splitlines()) if m]
    assert sorted(names) == sorted([f"op {k.value}" for k in dc.PrimitiveKind] + ["op matmul (3, 4) @ (2, 4, 2)"])


# Entries each check of `gradcheck --scope full` perturbs: every parameter its
# builder reads, found on the tape.
FULL_SCOPE_ENTRIES = {
    "op matmul": 20, "op add": 24, "op subtract": 24, "op elementwise-multiply": 24,
    "op scalar-multiply": 12, "op relu": 12, "op sigmoid": 12, "op tanh": 12, "op exp": 12,
    "op log": 12, "op softmax-per-row": 15, "op concat-last-axis": 15, "op slice": 20,
    "op transpose-last-two": 20, "op sum": 20, "op mean": 20, "op broadcast-row": 4,
    "op layer-normalize-per-row": 15, "op matmul (3, 4) @ (2, 4, 2)": 28, "op merge-heads": 24,
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

    def sabotaged(parameters, build, tolerance=1e-4, step=1e-5):
        return real(parameters, build, tolerance=1e-22, step=step)

    monkeypatch.setattr(dc, "check_gradients", sabotaged)
    assert run(["gradcheck", "--scope", "op"]) == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_nonfinite_is_verification_failure(capsys):
    """A non-finite value inside a check fails that check, not the data:
    the other checks still run and the exit code is 5."""
    assert run(["gradcheck", "--scope", "op", "--step", "1e300"]) == 5
    out = capsys.readouterr().out.splitlines()
    assert "FAIL op exp: exp: produced non-finite values" in out
    assert "PASS op add" in "\n".join(out)
    assert out[-1] == "gradcheck: FAIL"
    # a failed check's report names each entry by plain integer indices
    sigmoid = out.index("FAIL op sigmoid: max rel err 1.000e+00 over 12 entries")
    assert out[sigmoid + 3].startswith("      input0[0, 0]: analytic=")
    assert "np.int64" not in "\n".join(out)


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
