import weakref

import numpy as np
import pytest

from dualface import diffcore as dc
from dualface import verify

from oracles import assert_close, layer_norm_rows as oracle_ln


def test_tensor_basics():
    t = dc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.size == 4
    with pytest.raises(dc.ShapeMismatchError):
        t.item()
    assert dc.Tensor(5.0).item() == 5.0


def test_tensor_rejects_nonfinite():
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([1.0, np.nan])
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([np.inf, 0.0])


def test_forward_matches_numpy():
    for trial in range(30):
        rng = np.random.default_rng(trial)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5))
        m = rng.standard_normal((5, 3))
        ta, tb, tm = dc.Tensor(a), dc.Tensor(b), dc.Tensor(m)
        assert_close(dc.matmul(ta, tm).data, a @ m, 1e-14, "matmul")
        assert_close(dc.add(ta, tb).data, a + b, 1e-14, "add")
        assert_close(dc.subtract(ta, tb).data, a - b, 1e-14, "subtract")
        assert_close(dc.multiply(ta, tb).data, a * b, 1e-14, "multiply")
        assert_close(dc.scalar_multiply(ta, 2.5).data, 2.5 * a, 1e-14, "scalar")
        assert_close(dc.relu(ta).data, np.maximum(a, 0.0), 1e-14, "relu")
        assert_close(dc.sigmoid(ta).data, 1.0 / (1.0 + np.exp(-a)), 1e-14, "sigmoid")
        assert_close(dc.tanh(ta).data, np.tanh(a), 1e-14, "tanh")
        assert_close(dc.exp(ta).data, np.exp(a), 1e-14, "exp")
        assert_close(dc.log(dc.Tensor(np.abs(a) + 0.5)).data, np.log(np.abs(a) + 0.5), 1e-14, "log")
        assert_close(dc.transpose_last_two(ta).data, a.T, 0.0, "transpose")
        assert_close(dc.sum_all(ta).data, [a.sum()], 1e-14, "sum")
        assert_close(dc.mean_all(ta).data, [a.mean()], 1e-14, "mean")
        assert_close(dc.concat_last(ta, tb).data, np.concatenate([a, b], axis=1), 0.0, "concat")
        assert_close(dc.slice_axis(ta, 0, 1, 3).data, a[1:3], 0.0, "slice")


def test_softmax_rows_properties():
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        a = rng.standard_normal((6, 7)) * 5
        s = dc.softmax_rows(dc.Tensor(a)).data
        assert_close(s.sum(axis=1), np.ones(6), 1e-13, "softmax row sums")
        assert np.all(s > 0)
        # shift invariance per row
        shifted = dc.softmax_rows(dc.Tensor(a + 3.0)).data
        assert_close(shifted, s, 1e-12, "softmax shift invariance")


def test_softmax_underflows_masked_positions_to_zero():
    a = np.array([[0.0, -1e30, 0.5]])
    s = dc.softmax_rows(dc.Tensor(a)).data
    assert s[0, 1] == 0.0
    assert_close(s[0, [0, 2]].sum(), 1.0, 1e-15, "masked softmax")


def test_layer_norm_matches_oracle():
    for trial in range(30):
        rng = np.random.default_rng(200 + trial)
        a = rng.standard_normal((5, 9)) * rng.uniform(0.1, 10)
        got = dc.layer_norm_rows(dc.Tensor(a)).data
        assert_close(got, oracle_ln(a), 1e-12, "layer norm")


def test_broadcast_row_accepts_flat_and_single_row():
    v = np.array([1.0, 2.0, 3.0])
    a = dc.broadcast_row(dc.Tensor(v), 4).data
    b = dc.broadcast_row(dc.Tensor(v.reshape(1, 3)), 4).data
    assert a.shape == (4, 3) and np.array_equal(a, b)
    assert np.array_equal(a[2], v)


def test_shape_validation():
    a = dc.Tensor(np.ones((2, 3)))
    b = dc.Tensor(np.ones((3, 2)))
    with pytest.raises(dc.ShapeMismatchError):
        dc.add(a, b)
    with pytest.raises(dc.ShapeMismatchError):
        dc.matmul(a, dc.Tensor(np.ones((2, 2))))
    with pytest.raises(dc.ShapeMismatchError):
        dc.concat_last(a, b)
    with pytest.raises(dc.ShapeMismatchError):
        dc.slice_axis(a, 0, 1, 5)
    with pytest.raises(dc.ShapeMismatchError):
        dc.slice_axis(a, 0, 2, 1)
    with pytest.raises(dc.ShapeMismatchError):
        dc.broadcast_row(a, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_outputs_rejected():
    """A non-finite result fails with its primitive's name; NumPy's
    RuntimeWarning may come with the error."""
    with pytest.raises(dc.NonFiniteError, match="^exp: "):
        dc.exp(dc.Tensor(np.full((1, 1), 1e4)))
    with pytest.raises(dc.NonFiniteError, match="^log: "):
        dc.log(dc.Tensor(np.zeros((1, 1))))
    with pytest.raises(dc.NonFiniteError, match="^matmul: "):
        dc.matmul(dc.Tensor([[1e200]]), dc.Tensor([[1e200]]))
    # The squared deviations overflow; the normalised rows would be about +-1.
    for row in ([1e200, -1e200], [1e160, -1e160, 3.0]):
        with pytest.raises(dc.NonFiniteError, match="^layer-normalize-per-row: "):
            dc.layer_norm_rows(dc.Tensor([row]))


def test_finite_output_whose_square_overflows_accepted():
    """The dot-product fast path falls through to the exact test, so a
    finite array whose squares overflow is never rejected."""
    big = np.array([[1e200, 1.0]])
    assert dc.all_finite(big) and not dc.all_finite(np.array([[1e200, np.inf]]))
    assert np.array_equal(dc.scalar_multiply(dc.Tensor(big), 1.0).data, big)
    assert np.array_equal(dc.Tensor(big).data, big)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_restores_entry_when_perturbed_build_fails():
    """A build that fails at a perturbed entry leaves the parameter as it
    found it, so the checks that follow read the unperturbed values."""
    p = dc.Parameter("w", [[1.0, 709.0]])
    with pytest.raises(dc.NonFiniteError, match="^exp: "):
        dc.check_gradients([p], lambda: dc.sum_all(dc.exp(p.value)), step=1.0)
    assert np.array_equal(p.value.data, [[1.0, 709.0]])


def test_gradcheck_rejects_nonfinite_perturbation():
    """A perturbation that overflows is refused before anything is built."""
    builds = []

    def build():
        builds.append(1)
        return dc.sum_all(p.value)

    top = np.finfo(np.float64).max
    for value in (top, -top):
        p = dc.Parameter("w", [[1.0, value]])
        with pytest.raises(dc.NonFiniteError, match="w"):
            dc.check_gradients([p], build, step=1e300)
    assert not builds
    assert p.value.data[0, 1] == -top


def test_backprop_rejects_foreign_output():
    with dc.Tape():
        pass
    with dc.Tape() as tape:
        a = dc.add(dc.Tensor([1.0]), dc.Tensor([2.0]))
    stray = dc.Tensor([3.0])
    with pytest.raises(dc.DanglingNodeError):
        dc.backpropagate(tape, stray, np.ones(1))
    dc.backpropagate(tape, a, np.ones(1))  # fine
    w = dc.Parameter("w", np.arange(6, dtype=np.float64).reshape(2, 3))
    with dc.Tape() as tape:
        z = dc.mean_all(dc.relu(dc.matmul(w.value, dc.transpose_last_two(w.value))))
    assert len(tape.records) == 4  # one record per primitive, leaves none
    dc.backpropagate(tape, z, np.ones(1))


def test_backprop_from_parameter_leaf():
    """A parameter's tensor the tape read is a valid output: its gradient
    is the seed."""
    p = dc.Parameter("p", np.ones((1, 2)))
    with dc.Tape() as tape:
        dc.exp(p.value)
    dc.backpropagate(tape, p.value, np.array([[2.0, 3.0]]))
    assert np.array_equal(p.gradient.data, np.array([[2.0, 3.0]]))


def test_backprop_seed_shape_checked():
    p = dc.Parameter("p", np.ones((2, 2)))
    with dc.Tape() as tape:
        out = dc.mean_all(p.value)
    with pytest.raises(dc.ShapeMismatchError):
        dc.backpropagate(tape, out, np.ones((2, 2)))


def test_gradient_accumulates_across_backprops():
    p = dc.Parameter("p", np.array([[2.0, 3.0]]))
    with dc.Tape() as tape:
        out = dc.sum_all(p.value)
    dc.backpropagate(tape, out, np.ones(1))
    dc.backpropagate(tape, out, np.ones(1))
    assert np.array_equal(p.gradient.data, np.full((1, 2), 2.0))
    p.zero_gradient()
    assert np.array_equal(p.gradient.data, np.zeros((1, 2)))


def test_diamond_graph_gradient():
    # y = sum(a*a + a*a) -> dy/da = 4a
    p = dc.Parameter("p", np.array([[1.5, -2.0, 0.5]]))
    with dc.Tape() as tape:
        sq = dc.multiply(p.value, p.value)
        out = dc.sum_all(dc.add(sq, sq))
    dc.backpropagate(tape, out, np.ones(1))
    assert_close(p.gradient.data, 4.0 * p.value.data, 1e-13, "diamond")


def test_gradcheck_every_primitive():
    """Seeded finite-difference sweep across compositions touching each op."""
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        a = dc.Parameter("a", rng.standard_normal((3, 4)))
        b = dc.Parameter("b", rng.standard_normal((4, 3)))
        proj = dc.Tensor(rng.standard_normal((3, 3)))

        def build():
            m = dc.matmul(a.value, b.value)
            s = dc.sigmoid(m)
            t = dc.tanh(m)
            e = dc.exp(dc.scalar_multiply(m, 0.1))
            lg = dc.log(dc.add(dc.multiply(e, e), dc.Tensor(np.ones((3, 3)))))
            mix = dc.add(dc.subtract(s, t), lg)
            sm = dc.softmax_rows(mix)
            ln = dc.layer_norm_rows(dc.concat_last(sm, mix))
            sl = dc.slice_axis(ln, 1, 1, 4)
            tr = dc.transpose_last_two(sl)
            back = dc.transpose_last_two(tr)
            return dc.mean_all(dc.multiply(back, proj))

        report = dc.check_gradients([a, b], build, tolerance=1e-4, step=1e-5)
        assert report.passed, report.format()
        assert report.n_entries == 24


def test_gradcheck_relu_and_broadcast():
    for trial in range(10):
        rng = np.random.default_rng(400 + trial)
        # keep clear of the relu kink so no entries get flagged
        vals = np.where(rng.standard_normal((1, 5)) > 0, 1.0, -1.0) * rng.uniform(0.3, 2.0, (1, 5))
        p = dc.Parameter("p", vals)
        proj = dc.Tensor(rng.standard_normal((4, 5)))

        def build():
            rows = dc.broadcast_row(p.value, 4)
            return dc.mean_all(dc.multiply(dc.relu(rows), proj))

        report = dc.check_gradients([p], build, tolerance=1e-4, step=1e-5)
        assert report.passed, report.format()
        assert report.n_flagged == 0


def test_gradcheck_flags_relu_kink():
    p = dc.Parameter("p", np.array([[0.0, 1.0]]))

    def build():
        return dc.sum_all(dc.relu(p.value))

    report = dc.check_gradients([p], build, tolerance=1e-4, step=1e-5)
    flagged = {e.index for e in report.flagged}
    assert (0, 0) in flagged
    assert report.passed  # the kink entry is excluded, the smooth one passes
    assert any("nondifferentiable" in e.note for e in report.flagged)


def test_relu_subgradient_zero_at_kink():
    p = dc.Parameter("p", np.array([[0.0, -1.0, 2.0]]))
    with dc.Tape() as tape:
        out = dc.sum_all(dc.relu(p.value))
    dc.backpropagate(tape, out, np.ones(1))
    assert np.array_equal(p.gradient.data, np.array([[0.0, 0.0, 1.0]]))


def test_gradcheck_report_format():
    p = dc.Parameter("p", np.array([[1.0, 2.0]]))
    report = dc.check_gradients([p], lambda: dc.mean_all(dc.multiply(p.value, p.value)))
    text = report.format()
    assert "checked 2 entries" in text
    assert "PASS" in text


def test_constant_operand_gradient_released_at_once(monkeypatch):
    """A gradient reaching a constant (an operand no record outputs) is
    dropped as soon as it is returned, not kept until backprop ends."""
    w = dc.Parameter("w", np.ones((4, 4)))
    with dc.Tape() as tape:
        h = dc.matmul(dc.Tensor(np.ones((3, 4))), w.value)
        out = dc.mean_all(dc.matmul(dc.Tensor(np.ones((2, 3))), h))
    real = dc.PrimitiveKind.MATMUL.backward
    constant_grads, alive_at_call = [], []

    def spy(record, g):
        alive_at_call.append([ref() is not None for ref in constant_grads])
        grads = real(record, g)
        constant_grads.append(weakref.ref(grads[0]))
        return grads

    monkeypatch.setattr(dc.PrimitiveKind.MATMUL, "backward", spy)
    dc.backpropagate(tape, out, np.ones(1))
    assert alive_at_call == [[], [False]]
    assert np.array_equal(w.gradient.data, np.full((4, 4), 0.75))


def test_unreferenced_intermediate_allowed():
    p = dc.Parameter("p", np.ones((2, 2)))
    with dc.Tape() as tape:
        dc.exp(p.value)  # dead branch, never used downstream
        out = dc.mean_all(p.value)
    dc.backpropagate(tape, out, np.ones(1))
    assert_close(p.gradient.data, np.full((2, 2), 0.25), 1e-15, "dead branch")


def test_many_tensors_keep_distinct_ids():
    """Releasing tensors mid-build must not recycle tape node identities."""
    p = dc.Parameter("p", np.ones((1, 1)))
    with dc.Tape() as tape:
        acc = p.value
        for _ in range(200):
            acc = dc.add(acc, dc.Tensor(np.ones((1, 1))))
        out = dc.sum_all(acc)
    dc.backpropagate(tape, out, np.ones(1))
    assert p.gradient.data[0, 0] == 1.0


def _output_invariant_cases():
    """Every kind at its gradient-check shapes, plus the shapes where a rule
    could hand back a view of its input: one row transposed, one row
    broadcast to one row, one operand concatenated."""
    K = dc.PrimitiveKind
    cases = [(kind, *verify._OPS.get(kind, ([(3, 4)], {}))) for kind in K]
    cases += [(K.TRANSPOSE_LAST_TWO, [(1, 4)], {}), (K.BROADCAST_ROW, [(1, 4)], {"rows": 1}),
              (K.CONCAT_LAST, [(3, 4)], {})]
    return [pytest.param(*case, id=f"{case[0].value} {case[1]}") for case in cases]


@pytest.mark.parametrize("kind,shapes,attrs", _output_invariant_cases())
def test_outputs_are_fresh_contiguous_float64(kind, shapes, attrs):
    """evaluate wraps each forward rule's array without a copy, which is
    sound only if that array is float64, C-contiguous and its own memory."""
    inputs = verify._inputs(np.random.default_rng(0), *shapes, kind=kind)
    out = dc.evaluate(kind, inputs, **attrs).data
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert not any(np.shares_memory(out, t.data) for t in inputs)


# The rules' formulas before they called the reduction ufuncs directly; each
# rewritten rule must reproduce them bit for bit.
def _old_sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _old_softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _old_layer_norm(a):
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dc._LN_EPS)
    return (a - mu) * inv, inv


def _forward_and_grad(fn, x, g):
    with dc.Tape() as tape:
        out = fn(dc.Tensor(x))
    record = tape.records[-1]
    (grad,) = record.kind.backward(record, g)
    return out.data, grad


@pytest.mark.parametrize("shape", [(1, 7), (3, 5), (60, 32), (60, 128), (60, 360)])
def test_rewritten_rules_bit_identical(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = 3.0 * rng.standard_normal(shape)
    g = rng.standard_normal(shape)

    special = np.array([0.0, 1e-300, 30.0, 709.0, 745.0, 800.0])
    for x in (a, np.concatenate([special, -special]).reshape(1, -1)):
        assert np.array_equal(dc.sigmoid(dc.Tensor(x)).data, _old_sigmoid(x))

    y, grad = _forward_and_grad(dc.softmax_rows, a, g)
    assert np.array_equal(y, _old_softmax(a))
    assert np.array_equal(grad, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    normed, grad = _forward_and_grad(dc.layer_norm_rows, a, g)
    old_normed, inv = _old_layer_norm(a)
    assert np.array_equal(normed, old_normed)
    gm = g.mean(axis=-1, keepdims=True)
    gn = (g * normed).mean(axis=-1, keepdims=True)
    assert np.array_equal(grad, inv * (g - gm - normed * gn))

    assert np.array_equal(dc.mean_all(dc.Tensor(a)).data, np.asarray(a.mean(), dtype=np.float64).reshape(1))
    assert np.array_equal(dc.sum_all(dc.Tensor(a)).data, np.asarray(a.sum(), dtype=np.float64).reshape(1))

    rows, width = shape
    row = a[:1]
    out, grad = _forward_and_grad(lambda t: dc.broadcast_row(t, rows), row, g)
    assert np.array_equal(out, np.broadcast_to(row, (rows, width)).copy())
    assert np.array_equal(grad, g.sum(axis=0).reshape(row.shape))
