"""Span tracing around the public functions of each dualface module.

The tracer wraps the functions named in TARGETS from outside the package:
every module-level reference to a target (including names re-imported into
other dualface modules) is swapped for a timing wrapper, and swapped back by
uninstall(). Nothing is wrapped while the tracer is not installed, so
untraced runs measure the package as shipped.

Spans are aggregated online (calls, inclusive time, self time per target)
rather than stored one by one: the gradcheck workload makes millions of
primitive calls. A target that no longer exists is recorded as missing, and
every metric that needs it is reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

# (layer, function name) pairs; the layer is the dualface module holding it.
TARGETS = [
    ("diffcore", "evaluate"),
    ("diffcore", "backpropagate"),
    ("diffcore", "check_gradients"),
    ("model", "encode_audio"),
    ("model", "encode_motion"),
    ("model", "self_attend"),
    ("model", "speaker_modulate"),
    ("model", "cross_attend"),
    ("model", "forward_primal"),
    ("model", "forward_dual"),
    ("model", "generate_motion"),
    ("model", "generate_audio"),
    ("model", "load_checkpoint"),
    ("losses", "motion_kernel"),
    ("losses", "ccrl_total"),
    ("losses", "total_loss"),
    ("metrics", "lip_vertex_error"),
    ("metrics", "fdd"),
    ("train", "train"),
    ("train", "train_step"),
    ("train", "adam_step"),
    ("train", "evaluate_params"),
    ("data", "load_dataset"),
    ("cli", "main"),
]

# The 18 primitive kinds of the closed catalog, by PrimitiveKind value.
PRIMITIVE_KINDS = [
    "matmul", "add", "subtract", "elementwise-multiply", "scalar-multiply",
    "relu", "sigmoid", "tanh", "exp", "log", "softmax-per-row",
    "concat-last-axis", "slice", "transpose-last-two", "sum", "mean",
    "broadcast-row", "layer-normalize-per-row",
]

_GENERATORS = ("model.generate_motion", "model.generate_audio")
_FORWARDS = ("model.forward_primal", "model.forward_dual")


def _rows(x) -> int:
    """Frames in a Tensor, array or sequence; 0 when x has none."""
    frames = getattr(x, "frames", None)
    if frames is not None:
        return int(frames)
    shape = getattr(getattr(x, "data", x), "shape", None)
    return int(shape[0]) if shape else 0


# What one "step" is on each workload, and the spans that make up a step.
STEP_SCOPES = {
    "train_step": ("train.train_step",),  # an optimizer step
    "gen_frames": _GENERATORS,  # a generated frame
    "builds": ("diffcore.check_gradients",),  # a scalar evaluation in gradcheck
}


class Tracer:
    """Installs timing wrappers and aggregates spans per target name.

    `stats` covers every call; `step_stats` and `kinds` only calls made
    inside a step scope, so per-step figures leave out work such as the
    validation that runs between training steps.
    """

    def __init__(self, steps_from: str):
        self.steps_from = steps_from
        self.missing: set[str] = set()
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.step_stats: dict[str, list] = {}  # name -> [calls, inclusive s]
        self.kinds: dict[str, int] = {}
        self.step_ms: list[float] = []
        self.gen_frames = 0
        self.gen_forward_calls = 0
        self.gen_forward_rows = 0
        self.val_in_train_s = 0.0
        self.builds = 0
        self.entries_checked = 0
        self.entries_flagged = 0
        self.covered_s = 0.0  # time inside top-level spans
        self._stack: list[list] = []  # [name, child seconds]
        self._step_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "dualface" or n.startswith("dualface.")]
        for layer, fname in TARGETS:
            name = f"{layer}.{fname}"
            try:
                module = importlib.import_module(f"dualface.{layer}")
            except ImportError:
                module = None
            original = getattr(module, fname, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------------

    def _inside(self, *names) -> bool:
        return any(frame[0] in names for frame in self._stack)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        step_stats = self.step_stats.setdefault(name, [0, 0.0])
        is_scope = name in STEP_SCOPES[self.steps_from]
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            """Runs fn inside a span; returns (result, seconds)."""
            frame = [name, 0.0]
            stack.append(frame)
            self._step_depth += is_scope
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._step_depth -= is_scope
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if self._step_depth:
                    step_stats[0] += 1
                    step_stats[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered_s += elapsed
            return result, elapsed

        def plain(*args, **kwargs):
            return timed(*args, **kwargs)[0]

        if name == "diffcore.evaluate":
            kinds = self.kinds

            def wrapper(*args, **kwargs):
                if self._step_depth:
                    kind = args[0] if args else kwargs.get("kind")
                    key = getattr(kind, "value", str(kind))
                    kinds[key] = kinds.get(key, 0) + 1
                return timed(*args, **kwargs)[0]

        elif name == "diffcore.check_gradients":

            def wrapper(parameters, build, *args, **kwargs):
                def counted_build(*b_args, **b_kwargs):
                    self.builds += 1
                    return build(*b_args, **b_kwargs)

                report = plain(parameters, counted_build, *args, **kwargs)
                self.entries_checked += int(getattr(report, "n_entries", 0))
                self.entries_flagged += int(getattr(report, "n_flagged", 0))
                return report

        elif name == "train.train_step":

            def wrapper(*args, **kwargs):
                result, elapsed = timed(*args, **kwargs)
                self.step_ms.append(1e3 * elapsed)
                return result

        elif name == "train.evaluate_params":

            def wrapper(*args, **kwargs):
                in_train = self._inside("train.train")
                result, elapsed = timed(*args, **kwargs)
                if in_train:
                    self.val_in_train_s += elapsed
                return result

        elif name in _FORWARDS:

            def wrapper(*args, **kwargs):
                if self._inside(*_GENERATORS):
                    self.gen_forward_calls += 1
                    self.gen_forward_rows += _rows(args[1]) if len(args) > 1 else 0
                return plain(*args, **kwargs)

        elif name in _GENERATORS:

            def wrapper(*args, **kwargs):
                out = plain(*args, **kwargs)
                self.gen_frames += _rows(out)
                return out

        else:
            wrapper = plain
        wrapper.__wrapped__ = fn
        return wrapper

    def steps(self) -> int:
        return {"train_step": len(self.step_ms), "gen_frames": self.gen_frames, "builds": self.builds}[self.steps_from]

    # -- exact counts -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count the tracer has taken so far, flat; for the same inputs
        each op must add exactly the same amounts."""
        return {
            **{f"calls.{name}": s[0] for name, s in self.stats.items()},
            **{f"step_calls.{name}": s[0] for name, s in self.step_stats.items()},
            **{f"step_kinds.{kind}": n for kind, n in self.kinds.items()},
            "gen_frames": self.gen_frames,
            "gen_forward_calls": self.gen_forward_calls,
            "gen_forward_rows": self.gen_forward_rows,
            "builds": self.builds,
            "entries_checked": self.entries_checked,
            "entries_flagged": self.entries_flagged,
        }


# ---------------------------------------------------------------------------
# per-layer metrics

def _pctl(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, epochs: int, op_walls: list[float],
                  untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics over every traced op; returns (metrics, absent).

    "Per step" figures count only work inside the workload's step scope
    (STEP_SCOPES). A layer the workload never calls reads 0. Metrics whose
    functions are missing are listed as absent and left out.
    """
    st, missing = tracer.stats, tracer.missing
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def calls(*names):
        return sum(st[n][0] for n in names if n in st)

    def total_s(*names):
        return sum(st[n][1] for n in names if n in st)

    def step_s(*names):
        return sum(tracer.step_stats[n][1] for n in names if n in tracer.step_stats)

    def put(metric, unit, needs, value):
        if any(n in missing for n in needs):
            absent.append(metric)
        else:
            metrics[metric] = (float(value()), unit)

    def per(num, den):
        return num / den if den else 0.0

    steps = tracer.steps()
    scope = STEP_SCOPES[tracer.steps_from]

    def per_step(metric, unit, needs, value):
        put(metric, unit, (*scope, *needs), lambda: per(value(), steps))

    ev, bp = ("diffcore.evaluate",), ("diffcore.backpropagate",)
    per_step("diffcore.primitive_calls_per_step", "count", ev, lambda: sum(tracer.kinds.values()))
    per_step("diffcore.matmul_calls_per_step", "count", ev, lambda: tracer.kinds.get("matmul", 0))
    for kind in PRIMITIVE_KINDS:
        per_step(f"diffcore.calls_per_step.{kind}", "count", ev, lambda k=kind: tracer.kinds.get(k, 0))
    per_step("diffcore.evaluate_ms_per_step", "ms", ev, lambda: 1e3 * step_s(*ev))
    per_step("diffcore.backpropagate_ms_per_step", "ms", bp, lambda: 1e3 * step_s(*bp))
    put("diffcore.us_per_primitive_call", "us", ev, lambda: 1e6 * per(total_s(*ev), calls(*ev)))

    mk, ccrl, tl = ("losses.motion_kernel",), ("losses.ccrl_total",), ("losses.total_loss",)
    per_step("losses.motion_kernel_calls_per_step", "count", mk,
             lambda: tracer.step_stats.get(mk[0], [0])[0])
    per_step("losses.motion_kernel_ms_per_step", "ms", mk, lambda: 1e3 * step_s(*mk))
    per_step("losses.ccrl_ms_per_step", "ms", ccrl, lambda: 1e3 * step_s(*ccrl))
    per_step("losses.total_loss_ms_per_step", "ms", tl, lambda: 1e3 * step_s(*tl))

    def per_frame(metric, value):
        put(metric, "count", (*_GENERATORS, *_FORWARDS), lambda: per(value(), tracer.gen_frames))

    per_frame("model.forward_calls_per_generated_frame", lambda: tracer.gen_forward_calls)
    per_frame("model.rows_per_generated_frame", lambda: tracer.gen_forward_rows)

    def ms_per_call(metric, *names):
        put(metric, "ms", names, lambda: 1e3 * per(total_s(*names), calls(*names)))

    ms_per_call("model.generate_ms_per_call", *_GENERATORS)
    ms_per_call("model.self_attend_ms", "model.self_attend")
    ms_per_call("model.cross_attend_ms", "model.cross_attend")
    ms_per_call("model.speaker_modulate_ms", "model.speaker_modulate")
    ms_per_call("model.encode_ms", "model.encode_audio", "model.encode_motion")
    ms_per_call("model.load_checkpoint_ms", "model.load_checkpoint")
    ms_per_call("data.load_dataset_ms", "data.load_dataset")

    step_ms = sorted(tracer.step_ms)
    ts = ("train.train_step",)
    put("train.train_step_ms_p50", "ms", ts, lambda: _pctl(step_ms, 50) if step_ms else 0.0)
    put("train.train_step_ms_p95", "ms", ts, lambda: _pctl(step_ms, 95) if step_ms else 0.0)
    put("train.adam_step_ms_per_step", "ms", ("train.adam_step", *ts),
        lambda: 1e3 * per(total_s("train.adam_step"), len(step_ms)))
    val = ("train.train", "train.evaluate_params")
    put("train.validation_s_per_epoch", "s", val, lambda: per(tracer.val_in_train_s, epochs * calls("train.train")))
    put("train.validation_share", "ratio", val, lambda: per(tracer.val_in_train_s, total_s("train.train")))

    lf = ("metrics.lip_vertex_error", "metrics.fdd")
    put("metrics.lve_fdd_ms_per_sequence", "ms", lf, lambda: 1e3 * per(total_s(*lf), calls(lf[0])))
    put("cli.overhead_ms", "ms", ("cli.main",), lambda: 1e3 * per(st["cli.main"][2], st["cli.main"][0]))

    gc = ("diffcore.check_gradients",)
    put("gradcheck.entries_checked", "count", gc, lambda: tracer.entries_checked / len(op_walls))
    put("gradcheck.entries_flagged", "count", gc, lambda: tracer.entries_flagged / len(op_walls))

    wall = sum(op_walls)
    metrics["unattributed_share"] = (per(wall - tracer.covered_s, wall), "ratio")
    metrics["tracing_overhead"] = (statistics.median(op_walls) / statistics.median(untraced_walls), "ratio")
    return metrics, absent
