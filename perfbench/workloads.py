"""The three benchmark workloads, each driven through `dualface.cli.main`.

A workload prepares its inputs from the seed (`setup`), runs one closed-loop
operation of one or two CLI calls (`op`), and checks that operation's
outputs (`check`). Check failures are recorded on the call they concern, so
they count into the failed/attempted totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import traceback
import time

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualface import cli
from dualface import data as dd
from dualface import model as dm


class SetupError(RuntimeError):
    pass


@dataclass
class Call:
    argv: list[str]
    rc: int
    wall_s: float
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)


@dataclass
class Op:
    calls: list[Call]
    items: int = 0  # units of work done: steps, frames, or checked entries
    extra: dict = field(default_factory=dict)
    wall_s: float = 0.0  # set by the caller that times the op
    ref_s: float = 0.0  # wall_s at the host's reference speed (hostclock)

    @property
    def ok(self) -> bool:
        return all(not c.errors for c in self.calls)


def run_cli(argv: list[str]) -> Call:
    """One in-process `dualface` invocation; output captured, time measured
    around `cli.main` only."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # an uncaught error is exit code 1 for a CLI user
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
    call = Call(argv, rc, wall, out.getvalue(), err.getvalue())
    if rc != 0:
        call.errors.append(f"exit code {rc}: {call.stderr.strip()[-500:]}")
    return call


def _setup_call(argv):
    call = run_cli(argv)
    if call.rc != 0:
        raise SetupError(f"set-up call {' '.join(call.argv)} failed: {call.errors}")


def derive_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _finite_all(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())


# ---------------------------------------------------------------------------

class Train:
    """`dualface train` at CLI defaults, one epoch, on the default synthetic
    dataset. Each op trains on the next dataset of a seeded pool, so no op
    repeats another's inputs in one process; set-up ends with a warm-up run
    on the first."""

    name = "train"
    steps_from = "train_step"
    EPOCHS = 1
    POOL = 8

    def setup(self, work: Path, seed: int) -> dict:
        pool = []
        for j, s in enumerate(derive_seeds(seed, self.POOL)):
            d = work / f"data{j}"
            _setup_call(["synth", "--out", d, "--seed", s])
            pool.append((d / "manifest.json", s))
        # Warm-up: one training run, so the timed loop starts warm.
        manifest, s = pool[0]
        _setup_call(["train", "--data", manifest, "--out", work / "warmup", "--seed", s,
                     "--set", f"train.epochs={self.EPOCHS}"])
        return {"pool": pool}

    def op(self, state: dict, index: int, out: Path) -> Op:
        manifest, s = state["pool"][index % len(state["pool"])]
        call = run_cli(["train", "--data", manifest, "--out", out, "--seed", s,
                        "--set", f"train.epochs={self.EPOCHS}"])
        log = out / "train_log.jsonl"
        steps = len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0
        return Op([call], items=steps, extra={"manifest": manifest, "out": out})

    def check(self, state: dict, op: Op):
        call = op.calls[0]
        if call.rc != 0:
            return
        manifest = json.loads(Path(op.extra["manifest"]).read_text(encoding="utf-8"))
        n_train = sum(1 for e in manifest["entries"] if e["split"] == "train")
        out = op.extra["out"]
        rows = [json.loads(line) for line in (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(rows) != self.EPOCHS * n_train:
            call.errors.append(f"{len(rows)} log lines, expected {self.EPOCHS * n_train}")
        if [r["step"] for r in rows] != list(range(1, len(rows) + 1)):
            call.errors.append("log steps are not 1..N")
        terms = ("l_primal", "l_dual", "l_dr", "l_ccrl", "total")
        if not all(_finite_all([r[t] for t in terms]) for r in rows):
            call.errors.append("non-finite value in the training log")
        primal = [r["l_primal"] for r in rows]
        quarter = max(1, len(primal) // 4)
        if not np.mean(primal[-quarter:]) < np.mean(primal[:quarter]):
            call.errors.append("primal loss did not fall over the run")
        try:
            params = dm.load_checkpoint(out / "best.ckpt")
            if not all(_finite_all(p.value.data) for p in params.parameters()):
                call.errors.append("best.ckpt holds non-finite weights")
        except (OSError, ValueError) as e:
            call.errors.append(f"best.ckpt does not load: {e}")
        match = re.search(r"^best val LVE: (\S+)$", call.stdout, re.MULTILINE)
        lve = float(match.group(1)) if match else float("nan")
        if not np.isfinite(lve):
            call.errors.append("no finite best validation LVE reported")
        op.extra["val_lve"] = lve

    def report(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        return [
            ("train_steps_per_s", float(np.median([o.items / o.ref_s for o in ops])), "1/s"),
            ("train_val_lve", float(np.median([o.extra["val_lve"] for o in ops])), "lve"),
        ]


class GenerateLong:
    """`dualface animate` then `dualface lipread` at T=240 frames from a
    checkpoint trained in set-up with max_frames=240."""

    name = "generate_long"
    steps_from = "gen_frames"
    FRAMES = 240
    SEQUENCES = 10
    TOLERANCE = 1e-9

    def setup(self, work: Path, seed: int) -> dict:
        s_train, s_long = derive_seeds(seed, 2)
        _setup_call(["synth", "--out", work / "data", "--seed", s_train])
        _setup_call(["train", "--data", work / "data" / "manifest.json", "--out", work / "ckpt",
                     "--seed", s_train, "--set", "train.epochs=1",
                     "--set", f"model.max_frames={self.FRAMES}"])
        long_dir = work / "long"
        _setup_call(["synth", "--out", long_dir, "--seed", s_long,
                     "--set", f"synthetic.frames={self.FRAMES}",
                     "--set", f"synthetic.n_sequences={self.SEQUENCES}"])
        entries = json.loads((long_dir / "manifest.json").read_text(encoding="utf-8"))["entries"]
        seqs = [(long_dir / e["features"], long_dir / e["motion"], e["speaker"]) for e in entries]
        return {"checkpoint": work / "ckpt" / "best.ckpt", "seqs": seqs}

    def op(self, state: dict, index: int, out: Path) -> Op:
        feats, motion, speaker = state["seqs"][index % len(state["seqs"])]
        ckpt = state["checkpoint"]
        animate = run_cli(["animate", "--checkpoint", ckpt, "--features", feats,
                           "--speaker", speaker, "--out", out / "animate"])
        lipread = run_cli(["lipread", "--checkpoint", ckpt, "--motion", motion,
                           "--speaker", speaker, "--out", out / "lipread"])
        return Op([animate, lipread], items=2 * self.FRAMES,
                  extra={"feats": feats, "motion": motion, "speaker": speaker, "out": out})

    def check(self, state: dict, op: Op):
        animate, lipread = op.calls
        if animate.rc != 0 or lipread.rc != 0:
            return
        x = op.extra
        feats, motion = dd.load_features(x["feats"]), dd.load_motion(x["motion"])
        gen_motion = dd.load_motion(x["out"] / "animate" / "motion.bin")
        gen_feats = dd.load_features(x["out"] / "lipread" / "features.bin")
        if gen_motion.displacements.shape != motion.displacements.shape:
            animate.errors.append(f"animate wrote shape {gen_motion.displacements.shape}")
            return
        if gen_feats.values.shape != feats.values.shape:
            lipread.errors.append(f"lipread wrote shape {gen_feats.values.shape}")
            return
        if "teacher_forcing" not in state:
            state["teacher_forcing"] = self._teacher_forcing(state, op, feats, motion, gen_motion, gen_feats)
            print(f"teacher forcing check: {state['teacher_forcing']}")

    def _teacher_forcing(self, state, op, feats, motion, gen_motion, gen_feats) -> str:
        """Once per run: in-process float64 generation must match a
        teacher-forced pass over its own output within TOLERANCE, and the CLI
        files must hold that generation rounded to their float32 storage."""
        names = ("generate_motion", "generate_audio", "forward_primal", "forward_dual")
        if not all(hasattr(dm, n) for n in names):
            return "unavailable"
        animate, lipread = op.calls
        params = dm.load_checkpoint(state["checkpoint"])
        speaker, t = op.extra["speaker"], self.FRAMES
        ref_motion = dm.generate_motion(params, feats, speaker, gen_motion.fps)
        ref_feats = dm.generate_audio(params, motion, speaker)
        primal = dm.forward_primal(params, feats, speaker, ref_motion).prediction.data
        dual = dm.forward_dual(params, motion, speaker, ref_feats).prediction.data
        for call, pred, ref, saved in (
            (animate, primal, ref_motion.displacements.reshape(t, -1), gen_motion.displacements.reshape(t, -1)),
            (lipread, dual, ref_feats.values, gen_feats.values),
        ):
            err = float(np.abs(pred - ref).max())
            if not err <= self.TOLERANCE:
                call.errors.append(f"generation differs from teacher forcing by {err:.3e}")
            if not np.array_equal(saved, ref.astype(np.float32).astype(np.float64)):
                call.errors.append("written output differs from in-process generation")
        return "checked"

    def report(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        def ms_per_frame(o: Op, k: int) -> float:
            share = o.calls[k].wall_s / sum(c.wall_s for c in o.calls)
            return 1e3 * o.ref_s * share / self.FRAMES

        return [
            ("gen_motion_ms_per_frame", float(np.median([ms_per_frame(o, 0) for o in ops])), "ms"),
            ("gen_audio_ms_per_frame", float(np.median([ms_per_frame(o, 1) for o in ops])), "ms"),
        ]


class Gradcheck:
    """`dualface gradcheck --scope full`. Its inputs are fixed inside the
    program, so the seed changes nothing here. Set-up is a warm-up run of
    the block-scope checks."""

    name = "gradcheck"
    steps_from = "builds"
    _LINE = re.compile(r"^(PASS|FAIL) .+: max rel err \S+ over (\d+) entries(?:, \d+ flagged)?$")

    def setup(self, work: Path, seed: int) -> dict:
        _setup_call(["gradcheck", "--scope", "block"])
        return {}

    def op(self, state: dict, index: int, out: Path) -> Op:
        call = run_cli(["gradcheck", "--scope", "full"])
        lines = [m for m in map(self._LINE.match, call.stdout.splitlines()) if m]
        return Op([call], items=sum(int(m.group(2)) for m in lines), extra={"lines": lines})

    def check(self, state: dict, op: Op):
        call = op.calls[0]
        if call.rc != 0:
            return
        lines = op.extra["lines"]
        if not lines or any(m.group(1) != "PASS" for m in lines):
            call.errors.append("not every gradient check passed")
        if not call.stdout.rstrip().endswith("gradcheck: PASS"):
            call.errors.append("no overall PASS verdict")

    def report(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        return [("gradcheck_s", float(np.median([o.ref_s for o in ops])), "s")]


WORKLOADS = {w.name: w for w in (Train, GenerateLong, Gradcheck)}
