"""Reverse-mode differentiable tensor substrate.

A closed catalog of float64 tensor primitives with tape recording, reverse
accumulation into parameters, replay of a recorded graph (Program), and a
central-finite-difference checking harness. Model and loss code compose
these primitives and nothing else; no fused kernels, and no implicit
broadcasting outside broadcast-row and matmul's leading (head) axes.

An evaluated primitive's output is checked on its own; under a tape it is
then copied into the tape's storage, where a replayed graph writes it again
and checks each segment's stretch of that storage once, naming the first
bad output as an eager build would.
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from operator import or_
from typing import Callable, Sequence

_LN_EPS = 1e-5
_CHUNK = 1 << 17  # float64 values in the largest chunk of a tape's storage (1 MiB)
_PASS_BYTES = 128 << 10  # bytes of stacks a pass of the gradient checker may hold at once (128 KiB)


class ShapeMismatchError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


class DanglingNodeError(ValueError):
    pass


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a float array is finite. One dot product
    decides almost every array: a non-finite entry never gives a finite
    sum of squares. A finite array whose squares overflow falls through to
    the exact test."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


class Tensor:
    """Dense, C-contiguous float64 array. NaN/Inf values are rejected."""

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if not all_finite(arr):
            raise NonFiniteError("tensor construction received non-finite values")
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Takes a finite float64 array as it is, unchecked: C-contiguous, or
        a view that only primitives read (a cache leaf, a broadcast mask)."""
        t = object.__new__(cls)
        t.data = arr
        return t

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Trainable tensor with a stable name and a gradient, a plain array of
    the value's shape into which backpropagate adds.

    A parameter holds no reference cycle, so a store's parameters, and the
    buffers they view, are freed as soon as the store is. A store that lays
    parameters out in one buffer passes each value as a C-contiguous float64
    view, which is kept as it is, and a zeroed gradient view of the same shape."""

    __slots__ = ("id", "gradient")

    def __init__(self, name: str, values, gradient: np.ndarray | None = None):
        super().__init__(values)
        self.id = name
        self.gradient = np.zeros_like(self.data) if gradient is None else gradient

    @property
    def value(self) -> Tensor:
        return self

    def __repr__(self):
        return f"Parameter({self.id!r}, shape={self.shape})"


class TapeRecord:
    # needs: per input, whether the backward rule computes its gradient
    # (every input until a backward plan clears the constant ones)
    __slots__ = ("kind", "inputs", "output", "attrs", "saved", "needs")

    def __init__(self, kind, inputs, output, attrs, saved):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.attrs = attrs
        self.saved = saved
        self.needs = (True,) * len(inputs)


class Tape:
    """Append-only record of primitive applications, and the storage of
    their outputs.

    A record is appended after its inputs exist, so the records are
    topologically ordered by construction. Records hold references to their
    tensors, so a tensor's id() identifies it for the tape's lifetime.

    Each output lives in float64 chunks that the tape owns, bump-allocated
    in record order (an output larger than a chunk gets a chunk of its
    own), as a captured CUDA graph's outputs live in its memory pool. The
    first chunk is 32 KiB and each next one twice the last, up to 1 MiB,
    so a small trace reserves little more than it records. A
    Program built from the records replays in this storage, so a traced
    graph is held once.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []
        self.plan = None  # ((id(output), len(records)), _plan(self, output)) of the last backward pass
        self.free = np.empty(0)  # the unused tail of the last chunk
        self.chunk = _CHUNK >> 5  # float64 values in the next chunk

    def store(self, arr: np.ndarray) -> np.ndarray:
        """arr's values, of arr's shape, in the next free slot of the storage."""
        if arr.size > self.free.size:
            self.free = np.empty(max(arr.size, self.chunk))
            self.chunk = min(2 * self.chunk, _CHUNK)
        out, self.free = self.free[:arr.size].reshape(arr.shape), self.free[arr.size:]
        out[...] = arr
        return out

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []


# ---------------------------------------------------------------------------
# bind rules: (arrays, attrs, out, batch=0) -> (call, saved). Each checks
# its operands' shapes and returns its NumPy work as a call with no
# arguments, bound to the arrays, that writes the output into `out`, a
# C-contiguous float64 array of the output's shape, and returns it; given
# out=None (as from _apply, which checks it), the call returns a new one. A
# kind whose work is one NumPy call binds that call; the others bind a
# function below. `saved` is what the backward rule reads besides the
# output: layer norm's row scales, which the call writes in place; None for
# every other kind. With batch=1 every operand has one more, leading axis,
# of the batch's size or of 1 (an operand the batch does not change), and so
# does the output: one value of the output per row of the batch.

def _fw_matmul(arrays, attrs, out, batch=0):
    """Matrices, or stacks whose leading axes broadcast, such as (T, d) by
    (H, d, dk) heads; at batch=1 a lower rank gains axes after the batch's."""
    a, b = arrays
    if a.ndim < 2 + batch or b.ndim < 2 + batch:
        raise ShapeMismatchError(f"matmul expects operands of rank >= 2, got {a.shape} and {b.shape}")
    if batch and a.ndim != b.ndim:
        rank = max(a.ndim, b.ndim)
        a, b = (x.reshape(x.shape[:1] + (1,) * (rank - x.ndim) + x.shape[1:]) for x in (a, b))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if any(x != y and x != 1 != y for x, y in zip(a.shape[-3::-1], b.shape[-3::-1])):
        raise ShapeMismatchError(f"matmul leading axes do not broadcast: {a.shape} @ {b.shape}")
    return partial(np.matmul, a, b, out), None


def _same_shape(a, b, name, batch):
    if a.shape[batch:] != b.shape[batch:]:
        raise ShapeMismatchError(f"{name} expects identical shapes, got {a.shape} and {b.shape}")


def _elementwise(f, name=None):
    """The bind rule of a kind whose work is f(*arrays, out): on one
    array, or on two of the same shape, checked as `name`'s."""
    def bind(arrays, attrs, out, batch=0):
        if name is not None:
            _same_shape(*arrays, name, batch)
        return partial(f, *arrays, out), None
    return bind


def _fw_scalar_multiply(arrays, attrs, out, batch=0):
    (a,) = arrays
    return partial(np.multiply, a, attrs["scalar"], out), None


def _fw_relu(arrays, attrs, out, batch=0):
    (a,) = arrays
    return partial(np.maximum, a, 0.0, out=out), None  # a positional out is deprecated here


def _sigmoid(a, out):
    # exp(-|a|) never overflows: 1/(1+e) where a >= 0 and e/(1+e) below.
    e = np.exp(-np.abs(a))
    return np.divide(np.where(a >= 0, 1.0, e), 1.0 + e, out=out)


def _softmax_rows(a, out):
    e = np.subtract(a, np.maximum.reduce(a, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def _fw_concat_last(arrays, attrs, out, batch=0):
    first = arrays[0]
    for a in arrays[1:]:
        if a.ndim != first.ndim or a.shape[batch:-1] != first.shape[batch:-1]:
            raise ShapeMismatchError(
                f"concat-last-axis operands differ off the last axis: {[x.shape for x in arrays]}"
            )
    if batch:
        rows = max(len(a) for a in arrays)
        arrays = [np.broadcast_to(a, (rows, *a.shape[1:])) for a in arrays]
    return partial(np.concatenate, arrays, -1, out), None


def _copy(values, shape, out):
    """A copy's bind result: the call that copies values, broadcast to
    shape, into out or into a new array."""
    return partial(np.positive, values, np.empty(shape) if out is None else out), None


def _slice_index(shape, attrs):
    axis = attrs["axis"]
    start, stop = attrs["start"], attrs["stop"]
    ndim = len(shape)
    if not -ndim <= axis < ndim:
        raise ShapeMismatchError(f"slice axis {axis} out of range for rank {ndim}")
    axis %= ndim
    if not (0 <= start < stop <= shape[axis]):
        raise ShapeMismatchError(f"slice [{start}:{stop}) invalid for axis of length {shape[axis]}")
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    return tuple(idx)


def _fw_slice(arrays, attrs, out, batch=0):
    (a,) = arrays
    view = a[(slice(None),) * batch + _slice_index(a.shape[batch:], attrs)]
    return _copy(view, view.shape, out)


def _fw_transpose_last_two(arrays, attrs, out, batch=0):
    (a,) = arrays
    if a.ndim < 2:
        raise ShapeMismatchError("transpose-last-two needs rank >= 2")
    # A copy: the swapped view of one row is contiguous and would alias it.
    view = np.swapaxes(a, -1, -2)
    return _copy(view, view.shape, out)


def _fw_sum(arrays, attrs, out, batch=0):
    (a,) = arrays
    return partial(np.add.reduce, a.reshape(*a.shape[:batch], -1), -1, None, out, True), None


def _mean(flat, out):
    return np.divide(np.add.reduce(flat, -1, keepdims=True), flat.shape[-1], out=out)


def _fw_mean(arrays, attrs, out, batch=0):
    (a,) = arrays
    return partial(_mean, a.reshape(*a.shape[:batch], -1), out), None


def _fw_broadcast_row(arrays, attrs, out, batch=0):
    (a,) = arrays
    rows, lead, row = attrs["rows"], a.shape[:batch], a.shape[batch:]
    if rows < 1:
        raise ShapeMismatchError("broadcast-row needs rows >= 1")
    if len(row) not in (1, 2) or row[:-1] not in ((), (1,)):
        raise ShapeMismatchError(f"broadcast-row expects a row vector, got {a.shape}")
    return _copy(a.reshape(*lead, 1, row[-1]), (*lead, rows, row[-1]), out)


def _merge_heads(heads, out):
    np.copyto(out.reshape(heads.shape), heads)
    return out


def _fw_merge_heads(arrays, attrs, out, batch=0):
    """(H, T, dk) heads side by side, in order, as (T, H·dk): the axes
    between the batch axis and the last two are all head axes."""
    (a,) = arrays
    if a.ndim < 3 + batch:
        raise ShapeMismatchError(f"merge-heads expects (heads, rows, width), got {a.shape}")
    lead, (t, w) = a.shape[:batch], a.shape[-2:]
    heads = np.moveaxis(a.reshape(*lead, -1, t, w), -3, -2)  # (T, H, dk), a view
    shape = (*lead, t, heads.shape[-2] * w)
    return partial(_merge_heads, heads, np.empty(shape) if out is None else out), None


def _layer_norm_rows(a, out, inv):
    dev = a - np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]
    var = np.add.reduce(dev ** 2, axis=-1, keepdims=True) / a.shape[-1]
    # An overflowing variance would give inv = 0 and a finite all-zero row.
    if not np.isfinite(var).all():
        raise NonFiniteError("layer-normalize-per-row: row variance is not finite")
    np.divide(1.0, np.sqrt(var + _LN_EPS), out=inv)
    return np.multiply(dev, inv, out=out)


def _fw_layer_norm_rows(arrays, attrs, out, batch=0):
    (a,) = arrays
    inv = np.empty(a.shape[:-1] + (1,))
    return partial(_layer_norm_rows, a, out, inv), inv


# ---------------------------------------------------------------------------
# backward rules: (record, upstream grad) -> one gradient per input; matmul
# and multiply skip the product (None) for an input the record does not need

def _sum_to(g, shape):
    """g summed over the leading axes that broadcasting added to `shape` or stretched."""
    extra = g.ndim - len(shape)
    axes = (*range(extra), *(extra + i for i, n in enumerate(shape[:-2]) if n == 1 < g.shape[extra + i]))
    return np.add.reduce(g, axis=axes).reshape(shape) if axes else g


def _bw_matmul(r, g):
    a, b = (t.data for t in r.inputs)
    need_a, need_b = r.needs
    return [_sum_to(g @ b.mT, a.shape) if need_a else None, _sum_to(a.mT @ g, b.shape) if need_b else None]


def _bw_add(r, g):
    return [g, g]


def _bw_subtract(r, g):
    return [g, -g]


def _bw_multiply(r, g):
    a, b = (t.data for t in r.inputs)
    need_a, need_b = r.needs
    return [g * b if need_a else None, g * a if need_b else None]


def _bw_scalar_multiply(r, g):
    return [g * r.attrs["scalar"]]


def _bw_relu(r, g):
    # Subgradient 0 at exactly 0.
    x = r.inputs[0].data
    return [g * (x > 0.0)]


def _bw_sigmoid(r, g):
    s = r.output.data
    return [g * s * (1.0 - s)]


def _bw_tanh(r, g):
    t = r.output.data
    return [g * (1.0 - t * t)]


def _bw_exp(r, g):
    return [g * r.output.data]


def _bw_log(r, g):
    return [g / r.inputs[0].data]


def _bw_softmax_rows(r, g):
    y = r.output.data
    return [y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))]


def _bw_concat_last(r, g):
    grads = []
    offset = 0
    for t in r.inputs:
        w = t.data.shape[-1]
        grads.append(np.ascontiguousarray(g[..., offset:offset + w]))
        offset += w
    return grads


def _bw_slice(r, g):
    x = r.inputs[0].data
    out = np.zeros_like(x)
    out[_slice_index(x.shape, r.attrs)] = g
    return [out]


def _bw_transpose_last_two(r, g):
    return [np.ascontiguousarray(np.swapaxes(g, -1, -2))]


def _bw_sum(r, g):
    x = r.inputs[0].data
    return [np.full_like(x, g.reshape(-1)[0])]


def _bw_mean(r, g):
    x = r.inputs[0].data
    return [np.full_like(x, g.reshape(-1)[0] / x.size)]


def _bw_broadcast_row(r, g):
    x = r.inputs[0].data
    return [np.add.reduce(g, axis=0).reshape(x.shape)]


def _bw_merge_heads(r, g):
    x = r.inputs[0].data
    t, w = x.shape[-2:]
    return [np.ascontiguousarray(np.moveaxis(g.reshape(t, -1, w), 1, 0)).reshape(x.shape)]


def _bw_layer_norm_rows(r, g):
    normed, inv = r.output.data, r.saved
    gm = np.add.reduce(g, axis=-1, keepdims=True) / g.shape[-1]
    gn = np.add.reduce(g * normed, axis=-1, keepdims=True) / g.shape[-1]
    return [inv * (g - gm - normed * gn)]


class PrimitiveKind(Enum):
    """The closed catalog: each member is a name, `bind` (the rule that
    checks operands and binds the kind's forward call to them) and its
    backward rule."""

    def __new__(cls, value, bind, backward):
        member = object.__new__(cls)
        member._value_ = value
        member.bind = bind
        member.backward = backward
        return member

    MATMUL = "matmul", _fw_matmul, _bw_matmul
    ADD = "add", _elementwise(np.add, "add"), _bw_add
    SUBTRACT = "subtract", _elementwise(np.subtract, "subtract"), _bw_subtract
    MULTIPLY = "elementwise-multiply", _elementwise(np.multiply, "elementwise-multiply"), _bw_multiply
    SCALAR_MULTIPLY = "scalar-multiply", _fw_scalar_multiply, _bw_scalar_multiply
    RELU = "relu", _fw_relu, _bw_relu
    SIGMOID = "sigmoid", _elementwise(_sigmoid), _bw_sigmoid
    TANH = "tanh", _elementwise(np.tanh), _bw_tanh
    EXP = "exp", _elementwise(np.exp), _bw_exp
    LOG = "log", _elementwise(np.log), _bw_log
    SOFTMAX_ROWS = "softmax-per-row", _elementwise(_softmax_rows), _bw_softmax_rows
    CONCAT_LAST = "concat-last-axis", _fw_concat_last, _bw_concat_last
    SLICE = "slice", _fw_slice, _bw_slice
    TRANSPOSE_LAST_TWO = "transpose-last-two", _fw_transpose_last_two, _bw_transpose_last_two
    SUM = "sum", _fw_sum, _bw_sum
    MEAN = "mean", _fw_mean, _bw_mean
    BROADCAST_ROW = "broadcast-row", _fw_broadcast_row, _bw_broadcast_row
    LAYER_NORM_ROWS = "layer-normalize-per-row", _fw_layer_norm_rows, _bw_layer_norm_rows
    MERGE_HEADS = "merge-heads", _fw_merge_heads, _bw_merge_heads


def _apply(kind: PrimitiveKind, arrays: list, attrs: dict, batch: int = 0) -> tuple:
    """kind's call, bound to arrays at `batch`, made into a new output;
    returns (output, saved), or raises _nonfinite(kind) if it is not finite."""
    call, saved = kind.bind(arrays, attrs, None, batch)
    if not all_finite(out := call()):
        raise _nonfinite(kind)
    return out, saved


def _nonfinite(kind: PrimitiveKind) -> NonFiniteError:
    return NonFiniteError(f"{kind.value}: produced non-finite values")


def evaluate(kind: PrimitiveKind, inputs: Sequence[Tensor], **attrs) -> Tensor:
    """Apply one primitive; records onto the active tape if one is open.
    There the output is copied into the tape's storage as soon as it is
    checked, and the rule's own array is dropped, so a trace holds one
    output outside its tape at a time.

    Only the output is checked for non-finite values. Every input is a
    checked output, a Tensor checked at construction, or a view of checked
    data, and each in-place writer of checked data checks what it writes.
    """
    out_arr, saved = _apply(kind, [t.data for t in inputs], attrs)
    if not _TAPE_STACK:
        return Tensor._wrap(out_arr)
    tape = _TAPE_STACK[-1]
    out = Tensor._wrap(tape.store(out_arr))
    tape.records.append(TapeRecord(kind, tuple(inputs), out, attrs, saved))
    return out


# Thin named wrappers; model and loss code reads better through these.

def _wrapper(kind: PrimitiveKind) -> Callable[..., Tensor]:
    """evaluate(kind, inputs) of the input tensors given positionally; evaluate
    is looked up at each call, so a wrapper installed on it sees every call."""
    return lambda *inputs: evaluate(kind, inputs)


matmul = _wrapper(PrimitiveKind.MATMUL)
add = _wrapper(PrimitiveKind.ADD)
subtract = _wrapper(PrimitiveKind.SUBTRACT)
multiply = _wrapper(PrimitiveKind.MULTIPLY)
relu = _wrapper(PrimitiveKind.RELU)
sigmoid = _wrapper(PrimitiveKind.SIGMOID)
tanh = _wrapper(PrimitiveKind.TANH)
exp = _wrapper(PrimitiveKind.EXP)
log = _wrapper(PrimitiveKind.LOG)
softmax_rows = _wrapper(PrimitiveKind.SOFTMAX_ROWS)
concat_last = _wrapper(PrimitiveKind.CONCAT_LAST)
transpose_last_two = _wrapper(PrimitiveKind.TRANSPOSE_LAST_TWO)
sum_all = _wrapper(PrimitiveKind.SUM)
mean_all = _wrapper(PrimitiveKind.MEAN)
layer_norm_rows = _wrapper(PrimitiveKind.LAYER_NORM_ROWS)
merge_heads = _wrapper(PrimitiveKind.MERGE_HEADS)


def scalar_multiply(a, scalar: float):
    return evaluate(PrimitiveKind.SCALAR_MULTIPLY, (a,), scalar=float(scalar))


def slice_axis(a, axis: int, start: int, stop: int):
    return evaluate(PrimitiveKind.SLICE, (a,), axis=axis, start=start, stop=stop)


def broadcast_row(a, rows: int):
    return evaluate(PrimitiveKind.BROADCAST_ROW, (a,), rows=int(rows))


class Program:
    """Records of a trace, re-run in place, in order, on their inputs'
    current values (README, "Replay programs").

    run(values, until, **attrs) rebinds the first len(values) `leaves` to
    `values`, checked data as a record output is (a cut callback may rebind
    the others), and sets `attrs` on every record of `settable`. `cuts`
    maps a record index to a callback, or None, run once the segment of
    records ending there is checked; `until`, a cut or the record count,
    runs the segments up to it only. Every run writes each planned output
    into the tape storage that holds its traced value, then checks the
    segment's stretch of that storage once per chunk; the `unplanned`
    records, whose output shapes change from run to run, allocate and check
    their outputs one by one. A failed check, or an exception inside a segment, is
    reported for the first planned output before that point that is not
    finite, with evaluate's message, so a replay names the primitive an
    eager build names.

    An operand is read once, when the program is built, unless it is a
    leaf or an unplanned output. A planned record whose operands are all
    read once, and that is not settable, is bound then to its kind's call,
    which a run makes and nothing else (layer norm's writes its row scales
    into the array its record saves from then on); any other record binds
    its call on every run (_rerun).

    With `batch` B > 1 each record runs once over B graphs' (B, ...) stacks
    by its bind rule at batch=1: the leaves' values, the unplanned outputs
    and the planned output tensors, rebound at build to a stack in one new
    block per segment. A constant or parameter is read with a leading axis
    of 1, as _batched reads it."""

    def __init__(self, records: Sequence[TapeRecord], leaves: Sequence[Tensor] = (),
                 settable: Sequence[TapeRecord] = (), cuts: dict[int, Callable[[], None] | None] | None = None,
                 unplanned: Sequence[TapeRecord] = (), batch: int = 1):
        self.leaves = list(leaves)
        self.settable = [r.attrs for r in settable]
        cuts, unplanned, settable = cuts or {}, set(unplanned), set(settable)
        planned = {r.output for r in records if r not in unplanned}
        rebound = {*self.leaves, *(r.output for r in unplanned)}
        lead = int(batch > 1)  # the bind rules' batch: 1 when every output is a stack
        stacked = {*rebound, *(r.output for r in records)} if lead else set()
        self.ends = ends = sorted({*cuts, len(records)})
        # Per segment: a step (call, output array or None if unplanned,
        # record) per record, the stretches to check and the callback.
        self.segments = []
        for a, b in zip([0, *ends], ends):
            if lead:
                outputs = [r.output for r in records[a:b] if r.output in planned]
                block, start = np.empty(batch * sum(t.data.size for t in outputs)), 0
                for t in outputs:
                    size = batch * t.data.size
                    t.data, start = block[start:start + size].reshape(batch, *t.data.shape), start + size
            steps = []
            for r in records[a:b]:
                out = r.output.data if r.output in planned else None
                fixed = out is not None and r not in settable and rebound.isdisjoint(r.inputs)
                if lead:
                    r = TapeRecord(r.kind, tuple(t if t in stacked else Tensor._wrap(t.data[None]) for t in r.inputs),
                                   r.output, r.attrs, r.saved)
                if fixed:
                    call, saved = r.kind.bind([t.data for t in r.inputs], r.attrs, out, lead)
                    if saved is not None:
                        saved[...], r.saved = r.saved, saved
                else:
                    call = partial(_rerun, r, out, lead)
                steps.append((call, out, r))
            self.segments.append((steps, _stretches([s[1] for s in steps if s[1] is not None]), cuts.get(b)))

    def run(self, values: Sequence[np.ndarray] = (), until: int | None = None, **attrs):
        for leaf, value in zip(self.leaves, values):
            leaf.data = value
        for a in self.settable:
            a.update(attrs)
        for steps, stretches, callback in self.segments[:None if until is None else self.ends.index(until) + 1]:
            try:
                for step in steps:
                    step[0]()
            except Exception as e:
                bad = _nonfinite_output(steps[:next(i for i, s in enumerate(steps) if s is step)])
                if bad is None:
                    raise
                raise bad from e
            if not all(map(all_finite, stretches)):
                raise _nonfinite_output(steps)
            if callback is not None:
                callback()


def _rerun(r: TapeRecord, out: np.ndarray | None, batch: int):
    """r's call, bound at `batch` to its operands' current arrays, made into
    out; with out None (unplanned), into a new output, checked as evaluate
    does."""
    arrays = [t.data for t in r.inputs]
    if out is None:
        r.output.data, r.saved = _apply(r.kind, arrays, r.attrs, batch)
    else:
        call, r.saved = r.kind.bind(arrays, r.attrs, out, batch)
        call()


def _stretches(outputs: list[np.ndarray]) -> list[np.ndarray]:
    """The tape storage that holds `outputs`, given in record order: per
    chunk, one flat view from the first one's slot to the last one's end."""
    spans = []
    for o in outputs:
        # Addresses through .ctypes: the __array_interface__ getter keeps a
        # table that grows with the arrays it has seen (about 1 MB at 30,000).
        chunk = o.base
        start = (o.ctypes.data - chunk.ctypes.data) // chunk.itemsize
        if spans and spans[-1][0] is chunk:
            spans[-1][2] = start + o.size
        else:
            spans.append([chunk, start, start + o.size])
    return [chunk[lo:hi] for chunk, lo, hi in spans]


def _nonfinite_output(steps) -> NonFiniteError | None:
    """evaluate's error for the first planned output of steps that is not
    finite; None if there is none."""
    for _, out, r in steps:
        if out is not None and not all_finite(out):
            return _nonfinite(r.kind)
    return None


def _plan(tape: Tape, output: Tensor) -> tuple[list[tuple], int | None]:
    """Where each record input's gradient goes: its Parameter, the slot
    (index) of the record that made it from a parameter, or nowhere (None,
    which clears its `needs` flag); and the slot of `output`."""
    if not any(r.output is output or output in r.inputs for r in reversed(tape.records)):
        raise DanglingNodeError("output tensor was not recorded on this tape")
    slots, plan = {}, []  # slots keyed by the output tensors themselves
    for i, r in enumerate(tape.records):
        plan.append(tuple([t if isinstance(t, Parameter) else slots.get(t) for t in r.inputs]))
        r.needs = tuple([d is not None for d in plan[-1]])
        if True in r.needs:
            slots[r.output] = i
    return plan, slots.get(output)


def backpropagate(tape: Tape, output: Tensor) -> None:
    """Reverse-accumulate d(sum of output)/d(parameter) into parameter
    gradients; the output's own gradient is seeded with ones.

    Walks the records in reverse by the tape's plan, made once per output
    while the tape gains no record, with one gradient buffer per slot,
    dropped once its record is processed; a gradient reaching a Parameter
    is added to its gradient as it arrives."""
    key = (id(output), len(tape.records))
    if tape.plan is None or tape.plan[0] != key:
        tape.plan = key, _plan(tape, output)
    plan, out_slot = tape.plan[1]
    seed = np.ones_like(output.data)
    if isinstance(output, Parameter):
        output.gradient += seed
    grads = [None] * len(plan)
    if out_slot is not None:
        grads[out_slot] = seed
    for i in range(len(plan) - 1, -1, -1):
        g, grads[i] = grads[i], None
        if g is None:
            continue
        r = tape.records[i]
        for dest, ig in zip(plan[i], r.kind.backward(r, g)):
            if type(dest) is int:
                acc = grads[dest]
                grads[dest] = ig if acc is None else acc + ig
            elif dest is not None:
                dest.gradient += ig


# ---------------------------------------------------------------------------
# finite-difference gradient checking

@dataclass
class GradCheckEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    n_entries: int = 0
    n_flagged: int = 0
    max_rel_err: float = 0.0
    passed: bool = True
    worst: list[GradCheckEntry] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"checked {self.n_entries} entries, step={self.step:g}, tolerance={self.tolerance:g}",
            f"max relative error {self.max_rel_err:.3e} -> {'PASS' if self.passed else 'FAIL'}",
        ]
        if self.n_flagged:
            lines.append(f"{self.n_flagged} entries flagged as nondifferentiable points (excluded)")
        for e in self.worst:
            lines.append(
                f"  {e.param}{list(e.index)}: analytic={e.analytic:.6e} numeric={e.numeric:.6e} rel={e.rel_err:.3e}"
            )
        return "\n".join(lines)


def _check_perturbable(parameters: Sequence[Parameter], step: float):
    with np.errstate(over="ignore"):
        for p in parameters:
            if not (all_finite(p.data + step) and all_finite(p.data - step)):
                raise NonFiniteError(f"gradient check: {p.id} +/- {step:g} is not finite")


def _batched(steps: Sequence[tuple], p: Parameter, rows: np.ndarray) -> tuple[dict, np.ndarray]:
    """The records downstream of p, evaluated once for all the values of p
    stacked along the leading axis of rows. `steps` pairs each record, in
    tape order, with the operands whose stacks no later record reads. A
    record is applied with batch=1, as evaluate applies it, to its operands'
    stacks where they have one and to their recorded arrays otherwise. A
    relu's input is tested for its kink as soon as the relu has run, and
    then dropped like any other dead stack. Returns the stacks still held
    at the end, keyed by tensor, and per pair of rows (2k, 2k+1) whether
    some relu input changes sign between them; nothing is written into p
    or the tape."""
    stacks, kinked = {p: rows}, np.zeros(len(rows) // 2, dtype=bool)
    for r, dead in steps:
        stacks[r.output] = _apply(r.kind, [stacks[t] if t in stacks else t.data[None] for t in r.inputs], r.attrs, 1)[0]
        if r.kind is PrimitiveKind.RELU:
            positive = stacks[r.inputs[0]].reshape(len(rows), -1) > 0.0
            kinked |= (positive[0::2] != positive[1::2]).any(axis=1)
        for t in dead:
            del stacks[t]
    return stacks, kinked


def check_gradients(
    parameters: Sequence[Parameter] | None,
    build: Callable[[], Tensor],
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients of build() against central finite differences.

    `build` must construct a scalar from the current parameter values by
    composing primitives only, so every value that depends on a parameter
    is a record's output. It is called once, under a tape. `parameters`
    None checks every Parameter the build reads, in the order it first
    reads them. Every parameter entry is then perturbed by +/-step, and the
    perturbed values come from passes over the records downstream of that
    parameter (entry i at +step in row 2i, at -step in row 2i+1), with
    nothing written into the parameter or the tape. A pass takes as many
    entries as fit _PASS_BYTES: 2 rows of the most float64 values per row
    that its stacks hold at once, at least 1 entry and at most all of them.
    When a pass fails its rows are evaluated again one at a time, in that
    order, so the error raised is the one the first failing entry gives
    alone. Entries whose relu activation pattern differs between the two
    perturbed evaluations sit on a kink and are counted as flagged rather
    than judged. The report keeps the ten judged entries of largest
    relative error; of equal ones, the earlier parameter's and then the
    lower index's first. Raises NonFiniteError, before anything is
    evaluated, if a perturbed value would not be finite; given parameters
    are checked before anything is built."""
    if parameters is not None:
        _check_perturbable(parameters, step)
    with Tape() as tape:
        out = build()
    if parameters is None:
        parameters = list(dict.fromkeys(t for r in tape.records for t in r.inputs if isinstance(t, Parameter)))
        _check_perturbable(parameters, step)
    if out.data.size != 1:
        raise ShapeMismatchError("gradient check builder must produce a scalar")
    for p in parameters:
        p.gradient.fill(0.0)
    backpropagate(tape, out)

    # One walk over the tape: per tensor, the parameters whose values reach
    # it, bit i standing for parameters[i].
    reach: dict[Tensor, int] = {}
    for i, p in enumerate(parameters):
        reach[p] = reach.get(p, 0) | 1 << i
    for r in tape.records:
        reach[r.output] = reduce(or_, [reach.get(t, 0) for t in r.inputs])
    report, worst = GradCheckReport(tolerance=tolerance, step=step), []
    for i, p in enumerate(parameters):
        # The records downstream of p, each reading p or the output of one
        # kept before it; per record the stacks that no later record or the
        # output reads; and the most values per row that the pass's stacks
        # hold at once (each record adds its output, its dead operands leave).
        downstream = [r for r in tape.records if reach[r.output] >> i & 1]
        reached = {p, *(r.output for r in downstream)}
        last = {t: r for r in downstream for t in r.inputs if t in reached}
        flat = p.data.reshape(-1)
        steps, live, peak = [], flat.size, flat.size
        for r in downstream:
            dead = [t for t in dict.fromkeys(r.inputs) if last.get(t) is r and t is not out]
            live += r.output.data.size
            peak = max(peak, live)
            live -= sum(t.data.size for t in dead)
            steps.append((r, dead))
        width = max(1, min(flat.size, _PASS_BYTES // (2 * 8 * max(peak, 1))))  # entries per pass
        numeric, kinked = np.empty(flat.size), np.empty(flat.size, dtype=bool)
        for lo in range(0, flat.size, width):
            batch = np.arange(lo, min(lo + width, flat.size))
            rows = np.repeat(flat[None], 2 * len(batch), axis=0)
            rows[2 * (batch - lo), batch] += step
            rows[2 * (batch - lo) + 1, batch] -= step
            rows = rows.reshape(len(rows), *p.shape)
            try:
                stacks, kinked[batch] = _batched(steps, p, rows)
            except NonFiniteError:
                for k in range(len(rows)):
                    _batched(steps, p, rows[k:k + 1])
                raise
            f = np.broadcast_to(stacks.get(out, out.data).reshape(-1), len(rows))
            numeric[batch] = (f[0::2] - f[1::2]) / (2.0 * step)
        judged = np.flatnonzero(~kinked)
        a, n = p.gradient.reshape(-1)[judged], numeric[judged]
        err = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
        report.n_entries += len(judged)
        report.n_flagged += flat.size - len(judged)
        for k in np.argsort(-err, kind="stable")[:10]:  # p's ten worst, ties in index order
            idx = tuple(map(int, np.unravel_index(judged[k], p.shape)))
            worst.append(GradCheckEntry(p.id, idx, float(a[k]), float(n[k]), float(err[k])))
    # A stable sort: of equal errors, the earlier parameter's entry first.
    report.worst = sorted(worst, key=lambda e: e.rel_err, reverse=True)[:10]
    report.max_rel_err = report.worst[0].rel_err if report.worst else 0.0
    report.passed = report.max_rel_err < tolerance
    return report
