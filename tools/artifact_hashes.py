"""SHA-256 of every artifact a fixed set of dualface commands writes.

    PYTHONPATH=<checkout>/src python3 tools/artifact_hashes.py OUT_DIR

Runs dualface.cli.main in one process over the commands below, writing
under OUT_DIR (which must not exist yet), then prints one sorted
`sha256  relative/path` line per file written. Run it against two
checkouts and compare the output: equal lines prove the two write the same
bytes for training logs and checkpoints (with and without grad_clip, with
the tied codec), ablation outputs, gradcheck's stdout, generation at T=60
and T=240 in both directions, and a grouped eval decode (the 4 test
sequences share a length). BLAS runs on one thread, as perfbench pins it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402

from pathlib import Path  # noqa: E402

from dualface.cli import main  # noqa: E402

TRAIN = ["--set", "train.epochs=3", "--set", "train.val_every=1"]
LONG = ["--set", "model.max_frames=240"]


def commands(out: Path) -> list[list[str]]:
    data, long = out / "data", out / "data240"
    runs = {"plain": [], "clip": ["--set", "train.grad_clip=0.5"], "long": LONG,
            "tied": ["--set", "model.share_transpose_codec=true", *LONG]}
    cmds = [["synth", "--out", data],
            ["synth", "--out", long, "--set", "synthetic.frames=240", "--set", "synthetic.n_sequences=4"]]
    cmds += [["train", "--data", data / "manifest.json", "--out", out / name, *TRAIN, *extra]
             for name, extra in runs.items()]
    cmds.append(["ablate", "--data", data / "manifest.json", "--seeds", "2", "--set", "train.epochs=1",
                 "--out", out / "ablate"])
    # Generation from a plain and a tied checkpoint, both with max_frames=240.
    for name in ("long", "tied"):
        for frames, source in ((60, data), (240, long)):
            ckpt, gen = out / name / "best.ckpt", out / f"gen_{name}_{frames}"
            cmds += [["animate", "--checkpoint", ckpt, "--features", source / "seq000_features.bin",
                      "--speaker", "1", "--out", gen / "animate"],
                     ["lipread", "--checkpoint", ckpt, "--motion", source / "seq000_motion.bin",
                      "--speaker", "1", "--out", gen / "lipread"]]
    cmds.append(["eval", "--checkpoint", out / "plain" / "best.ckpt", "--data", data / "manifest.json",
                 "--split", "test", "--out", out / "eval"])
    return [[str(a) for a in cmd] for cmd in cmds]


def run(out: Path):
    out.mkdir(parents=True)
    with open(os.devnull, "w") as sink:
        for cmd in commands(out):
            with contextlib.redirect_stdout(sink):
                rc = main(cmd)
            if rc != 0:
                sys.exit(f"exit {rc}: dualface {' '.join(cmd)}")
    with open(out / "gradcheck_stdout.txt", "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        rc = main(["gradcheck", "--scope", "full"])
    if rc != 0:
        sys.exit(f"exit {rc}: dualface gradcheck --scope full")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    run(out)
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
