import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualface import diffcore as dc
from dualface import verify

from oracles import assert_close, gradient_check as oracle_gradient_check, layer_norm_rows as oracle_ln


def test_tensor_basics():
    t = dc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
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
    kept = []

    def build():
        kept.append(dc.exp(p.value))
        return dc.sum_all(kept[0])

    with pytest.raises(dc.NonFiniteError, match="^exp: "):
        dc.check_gradients([p], build, step=1.0)
    assert np.array_equal(p.value.data, [[1.0, 709.0]])
    assert np.array_equal(kept[0].data, np.exp([[1.0, 709.0]]))  # replayed at [0, 709], then rebound


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_names_the_first_entry_that_fails(monkeypatch):
    """Entry 1 at +step overflows exp, the first record, and entry 0 at
    -step makes log read 0 two records later. One pass over all four
    perturbations meets exp's failure first, yet the error names log, as
    entry 0 alone does: a failed pass is evaluated again one row at a
    time, in entry order, + before -."""
    p = dc.Parameter("w", [[1.0, 709.0]])
    ones = dc.Tensor(np.ones((1, 2)))
    failed, real = [], dc._batched

    def spy(steps, param, rows):
        try:
            return real(steps, param, rows)
        except dc.NonFiniteError as e:
            failed.append((len(rows), str(e)))
            raise

    monkeypatch.setattr(dc, "_batched", spy)
    with pytest.raises(dc.NonFiniteError, match="^log: "):
        dc.check_gradients([p], lambda: dc.sum_all(dc.log(dc.subtract(dc.exp(p), ones))), step=1.0)
    assert failed == [(4, "exp: produced non-finite values"), (1, "log: produced non-finite values")]
    assert np.array_equal(p.data, [[1.0, 709.0]])


def test_gradcheck_memory_is_bounded_per_pass():
    """The full-model check (54 parameters of up to 96 entries) evaluates
    at most _PERTURBATIONS perturbed values of a parameter per pass, drops
    each output's stack once no later record reads it and keeps only its
    ten worst entries, so it peaks under 768 KiB of traced allocations (480
    KiB at 32 perturbations). One pass over all 192 perturbations of the
    largest parameters peaks at about 1,070 KiB."""
    import tracemalloc

    build = dict(verify._full_checks(np.random.default_rng(1234)))["full model + all losses"]
    tracemalloc.start()
    try:
        report = dc.check_gradients(None, build)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.n_entries == 1977
    assert peak < 768 * 1024, peak


def test_backprop_rejects_foreign_output():
    with dc.Tape():
        pass
    with dc.Tape() as tape:
        a = dc.add(dc.Tensor([1.0]), dc.Tensor([2.0]))
    stray = dc.Tensor([3.0])
    with pytest.raises(dc.DanglingNodeError):
        dc.backpropagate(tape, stray)
    dc.backpropagate(tape, a)  # fine
    w = dc.Parameter("w", np.arange(6, dtype=np.float64).reshape(2, 3))
    with dc.Tape() as tape:
        z = dc.mean_all(dc.relu(dc.matmul(w.value, dc.transpose_last_two(w.value))))
    assert len(tape.records) == 4  # one record per primitive, leaves none
    dc.backpropagate(tape, z)


def test_backprop_from_parameter_leaf():
    """A parameter the tape read is a valid output: its gradient is the
    seed, ones."""
    p = dc.Parameter("p", np.ones((1, 2)))
    with dc.Tape() as tape:
        dc.exp(p.value)
    dc.backpropagate(tape, p.value)
    assert np.array_equal(p.gradient, np.ones((1, 2)))


def test_gradient_accumulates_across_backprops():
    p = dc.Parameter("p", np.array([[2.0, 3.0]]))
    with dc.Tape() as tape:
        out = dc.sum_all(p.value)
    dc.backpropagate(tape, out)
    dc.backpropagate(tape, out)
    assert np.array_equal(p.gradient, np.full((1, 2), 2.0))
    p.gradient.fill(0.0)
    assert np.array_equal(p.gradient, np.zeros((1, 2)))


def test_diamond_graph_gradient():
    # y = sum(a*a + a*a) -> dy/da = 4a
    p = dc.Parameter("p", np.array([[1.5, -2.0, 0.5]]))
    with dc.Tape() as tape:
        sq = dc.multiply(p.value, p.value)
        out = dc.sum_all(dc.add(sq, sq))
    dc.backpropagate(tape, out)
    assert_close(p.gradient, 4.0 * p.value.data, 1e-13, "diamond")


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
    assert report.n_flagged == 1 and report.n_entries == 1
    assert [e.index for e in report.worst] == [(0, 1)]  # the kink entry is not judged
    assert report.passed


def test_gradcheck_flags_kink_of_relu_reading_a_record():
    """The kink test reads the replayed relu input, not the recorded one."""
    p = dc.Parameter("p", np.array([[0.0, 1.0]]))
    report = dc.check_gradients([p], lambda: dc.sum_all(dc.relu(dc.scalar_multiply(p.value, 2.0))))
    assert report.n_flagged == 1 and [e.index for e in report.worst] == [(0, 1)]
    assert report.passed


def test_gradcheck_builds_once():
    """The checker builds once, under a tape, and replays that tape for
    every perturbed evaluation."""
    p = dc.Parameter("p", np.arange(6.0).reshape(2, 3) / 4.0)
    builds = []

    def build():
        builds.append(1)
        return dc.sum_all(dc.tanh(dc.multiply(p.value, p.value)))

    report = dc.check_gradients([p], build)
    assert report.passed and report.n_entries == 6
    assert len(builds) == 1


def test_gradcheck_without_parameters_checks_what_the_build_reads():
    """Given no parameters, the checker perturbs every Parameter its one
    build reads and no other; it still refuses a perturbation that overflows
    before any entry is perturbed."""
    p, q, unread = (dc.Parameter(n, np.arange(1.0, 5.0).reshape(2, 2) / 3.0) for n in "pqu")
    builds = []

    def build():
        builds.append(1)
        return dc.sum_all(dc.tanh(dc.matmul(q.value, p.value)))

    report = dc.check_gradients(None, build)
    assert report.passed and report.n_entries == 8 and len(builds) == 1
    assert {e.param for e in report.worst} == {"p", "q"}
    assert not unread.gradient.any()
    top = np.finfo(np.float64).max
    p.value.data[0, 1] = top  # q @ p stays finite; top + 1e300 does not
    with pytest.raises(dc.NonFiniteError, match="^gradient check: p "):
        dc.check_gradients(None, build, step=1e300)
    assert p.value.data[0, 1] == top and len(builds) == 2


def test_gradcheck_parameter_the_output_never_reaches():
    """No record is downstream of b, so each of its entries reads a numeric
    gradient of exactly 0, as its tape gradient does."""
    a = dc.Parameter("a", [[1.0, 2.0]])
    b = dc.Parameter("b", [[3.0, 4.0], [5.0, 6.0]])
    report = dc.check_gradients([a, b], lambda: dc.sum_all(a))
    assert report.passed and report.n_entries == 6
    unreached = [e for e in report.worst if e.param == "b"]
    assert sorted(e.index for e in unreached) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(e.numeric == 0.0 and e.analytic == 0.0 for e in unreached)


def _verdict(build):
    """check_gradients' verdict on every parameter build reads, and the
    reference's, each as (n_entries, n_flagged, worst) with every float of
    worst as its bits."""
    report = dc.check_gradients(None, build)
    with dc.Tape() as tape:
        out = build()
    params = list(dict.fromkeys(t for r in tape.records for t in r.inputs if isinstance(t, dc.Parameter)))
    for p in params:
        p.gradient.fill(0.0)
    dc.backpropagate(tape, out)

    def evaluate():
        with dc.Tape() as tape:
            value = build().item()
        return value, [r.inputs[0].data > 0.0 for r in tape.records if r.kind is dc.PrimitiveKind.RELU]

    n_entries, n_flagged, worst = oracle_gradient_check(
        [(p.id, p.data) for p in params], [p.gradient.copy() for p in params], evaluate, report.step)
    got = [(e.param, e.index, e.analytic.hex(), e.numeric.hex(), e.rel_err.hex()) for e in report.worst]
    expect = [(name, index, a.hex(), n.hex(), err.hex()) for name, index, a, n, err in worst]
    return (report.n_entries, report.n_flagged, got), (n_entries, n_flagged, expect)


def test_gradcheck_verdict_equals_the_loop_reference():
    """The checker counts, flags and ranks entries as the loop reference
    does, which perturbs one entry at a time in place and sorts all entries
    stably: the same ten worst, in the same order, to the bit. That holds on
    every check of the op suite, and on a case where twelve entries of two
    parameters tie for worst, so the cut at ten falls inside the second
    one, and an entry of a third parameter sits on a relu's kink."""
    for name, build in verify._op_checks(np.random.default_rng(1234)):
        got, expect = _verdict(build)
        assert got == expect, name
    p, q = dc.Parameter("p", np.zeros((2, 3))), dc.Parameter("q", np.zeros((2, 3)))
    r = dc.Parameter("r", [[0.0, 0.5, -0.5, 2.0]])
    got, expect = _verdict(lambda: dc.add(dc.add(dc.sum_all(dc.tanh(p)), dc.sum_all(dc.tanh(q))),
                                          dc.sum_all(dc.relu(r))))
    assert got == expect
    n_entries, n_flagged, worst = got
    assert (n_entries, n_flagged) == (15, 1)
    assert [(e[0], e[-1]) for e in worst] == [("p", worst[0][-1])] * 6 + [("q", worst[0][-1])] * 4


def test_gradcheck_replay_equals_fresh_build(monkeypatch):
    """Every value the checker evaluates from its tape equals a fresh build
    at the same perturbation, at the first and last entry of each parameter
    of every check of the full scope; once the check returns, every record
    output of its tape holds the value it recorded."""
    real = dc._batched
    for suite in verify._SUITES["full"]:
        for name, build in suite(np.random.default_rng(1234)):
            with dc.Tape() as tape:
                build()
            leaves = dict.fromkeys(t for r in tape.records for t in r.inputs if isinstance(t, dc.Parameter))
            for p in leaves:
                flat = p.value.data.reshape(-1)
                values = flat.copy()
                compared, traced = [], []

                def traced_build():
                    out = build()
                    records = dc._TAPE_STACK[-1].records
                    traced.append((out, records, [r.output.data.copy() for r in records]))
                    return out

                def spy(steps, param, rows):
                    stacks = real(steps, param, rows)
                    for row, f in zip(rows.reshape(len(rows), -1), stacks[traced[0][0]]):
                        if not np.array_equal(row[[0, -1]], values[[0, -1]]):
                            flat[:] = row
                            fresh = build().item()
                            flat[:] = values
                            assert f.item() == fresh, f"{name}: {p.id} at {row[[0, -1]]}"
                            compared.append(fresh)
                    return stacks

                monkeypatch.setattr(dc, "_batched", spy)
                dc.check_gradients([p], traced_build, step=1e-5)
                assert len(compared) == (4 if flat.size > 1 else 2), f"{name}: {p.id}"
                _, records, recorded = traced[0]
                assert all(np.array_equal(r.output.data, a) for r, a in zip(records, recorded)), f"{name}: {p.id}"


def test_gradcheck_replay_runs_no_single_call_rule(monkeypatch):
    """A program of the records downstream of one parameter (no leaves,
    cuts or unplanned records) makes each single-call kind's NumPy call
    directly: its runs bind none of those kinds' calls again, though the
    perturbed graph reads a constant and an output recorded outside it,
    and each run gives a fresh build's value."""
    K = dc.PrimitiveKind
    single = set(K) - {K.SIGMOID, K.SOFTMAX_ROWS, K.MEAN, K.LAYER_NORM_ROWS}
    rng = np.random.default_rng(61)
    p, q = dc.Parameter("p", rng.standard_normal((3, 4))), dc.Parameter("q", rng.standard_normal((4, 3)))
    eye = dc.Tensor(np.eye(3))

    def build():
        h = dc.add(dc.matmul(p, dc.tanh(q)), eye)  # tanh(q) is outside p's program
        h = dc.subtract(dc.multiply(h, h), dc.scalar_multiply(h, 0.5))
        h = dc.log(dc.add(dc.relu(dc.exp(dc.scalar_multiply(h, 0.1))), eye))
        h = dc.concat_last(h, dc.transpose_last_two(h))
        return dc.sum_all(dc.tanh(dc.add(h, dc.broadcast_row(dc.slice_axis(h, 0, 0, 1), 3))))

    with dc.Tape() as tape:
        out = build()
    assert {r.kind for r in tape.records} == single
    applied = []

    def spied(kind, real):
        def bind(arrays, attrs, out, batch=0):
            applied.append(kind)
            return real(arrays, attrs, out, batch)

        return bind

    sizes = []
    for param in (p, q):
        reached, downstream = {param}, []
        for r in tape.records:
            if any(t in reached for t in r.inputs):
                reached.add(r.output)
                downstream.append(r)
        program, values = dc.Program(downstream), param.data.copy()
        with monkeypatch.context() as m:  # spies set once the program is built
            for kind in single:
                m.setattr(kind, "bind", spied(kind, kind.bind))
            for entry in (0, -1):
                param.data.reshape(-1)[entry] += 1e-3
                program.run()
                assert not applied
                assert out.item() == build().item()
                applied.clear()
                param.data[...] = values
        sizes.append(len(downstream))
    assert sizes == [len(tape.records) - 1, len(tape.records)]


def _tanh_one_minus_t(r, g):
    return [g * (1.0 - r.output.data)]


def _layer_norm_without_gm(r, g):
    normed, inv = r.output.data, r.saved
    gn = np.add.reduce(g * normed, axis=-1, keepdims=True) / g.shape[-1]
    return [inv * (g - normed * gn)]


@pytest.mark.parametrize("kind,backward,failing", [
    (dc.PrimitiveKind.TANH, _tanh_one_minus_t, {"op tanh"}),
    (dc.PrimitiveKind.LAYER_NORM_ROWS, _layer_norm_without_gm, {
        "op layer-normalize-per-row", "block self_attend primal", "block self_attend dual",
        "block cross_attend primal", "block cross_attend dual", "full model + all losses"}),
], ids=["tanh", "layer-norm"])
def test_gradcheck_fails_sabotaged_backward(monkeypatch, kind, backward, failing):
    """A wrong backward rule fails every full-scope check that reaches it:
    replaying the tape leaves no wrong gradient unseen."""
    monkeypatch.setattr(kind, "backward", backward)
    ok, lines = verify.run_gradcheck("full", 1e-4, 1e-5)
    assert not ok
    assert {ln[5:].split(":")[0] for ln in lines if ln.startswith("FAIL ")} == failing


def test_relu_subgradient_zero_at_kink():
    p = dc.Parameter("p", np.array([[0.0, -1.0, 2.0]]))
    with dc.Tape() as tape:
        out = dc.sum_all(dc.relu(p.value))
    dc.backpropagate(tape, out)
    assert np.array_equal(p.gradient, np.array([[0.0, 0.0, 1.0]]))


def test_gradcheck_report_format():
    p = dc.Parameter("p", np.array([[1.0, 2.0]]))
    report = dc.check_gradients([p], lambda: dc.mean_all(dc.multiply(p.value, p.value)))
    text = report.format()
    assert "checked 2 entries" in text
    assert "PASS" in text


def test_constant_operand_gradient_released_at_once(monkeypatch):
    """A gradient reaching a constant (an operand no record outputs) is not
    kept until backprop ends: one its rule computes anyway (subtract's) is
    dropped as soon as it is returned, and matmul, told by the backward
    plan that the operand needs none, does not compute it."""
    w = dc.Parameter("w", np.ones((4, 4)))
    with dc.Tape() as tape:
        h = dc.subtract(dc.matmul(dc.Tensor(np.ones((3, 4))), w.value), dc.Tensor(np.ones((3, 4))))
        out = dc.mean_all(dc.subtract(dc.matmul(dc.Tensor(np.ones((2, 3))), h), dc.Tensor(np.ones((2, 4)))))
    matmul, subtract = dc.PrimitiveKind.MATMUL.backward, dc.PrimitiveKind.SUBTRACT.backward
    matmul_constant_grads, subtract_constant_grads, alive_at_call = [], [], []

    def spy_matmul(record, g):
        grads = matmul(record, g)
        matmul_constant_grads.append(grads[0])
        return grads

    def spy_subtract(record, g):
        alive_at_call.append([ref() is not None for ref in subtract_constant_grads])
        grads = subtract(record, g)
        subtract_constant_grads.append(weakref.ref(grads[1]))
        return grads

    monkeypatch.setattr(dc.PrimitiveKind.MATMUL, "backward", spy_matmul)
    monkeypatch.setattr(dc.PrimitiveKind.SUBTRACT, "backward", spy_subtract)
    dc.backpropagate(tape, out)
    assert alive_at_call == [[], [False]]
    assert matmul_constant_grads == [None, None]
    assert [r.needs for r in tape.records] == [(False, True), (True, False), (False, True), (True, False), (True,)]
    assert np.array_equal(w.gradient, np.full((4, 4), 0.75))


def test_unreferenced_intermediate_allowed():
    p = dc.Parameter("p", np.ones((2, 2)))
    with dc.Tape() as tape:
        dc.exp(p.value)  # dead branch, never used downstream
        out = dc.mean_all(p.value)
    dc.backpropagate(tape, out)
    assert_close(p.gradient, np.full((2, 2), 0.25), 1e-15, "dead branch")


def test_many_tensors_keep_distinct_ids():
    """Releasing tensors mid-build must not recycle tape node identities."""
    p = dc.Parameter("p", np.ones((1, 1)))
    with dc.Tape() as tape:
        acc = p.value
        for _ in range(200):
            acc = dc.add(acc, dc.Tensor(np.ones((1, 1))))
        out = dc.sum_all(acc)
    dc.backpropagate(tape, out)
    assert p.gradient[0, 0] == 1.0


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


@pytest.mark.parametrize("kind", list(dc.PrimitiveKind), ids=lambda k: k.value)
def test_rule_written_into_out_gives_the_same_bytes(kind):
    """Each kind's call, bound with a C-contiguous slice of a larger buffer
    as `out`, writes every entry of it and returns it, with the bytes it
    gives for out=None, at the kind's gradient-check shapes, each time it
    is made."""
    shapes, attrs = verify._OPS.get(kind, ([(3, 4)], {}))
    arrays = [t.data for t in verify._inputs(np.random.default_rng(7), *shapes, kind=kind)]
    call, saved = kind.bind(arrays, attrs, None)
    expect = call()
    buffer = np.full(expect.size + 2, np.nan)
    out = buffer[1:-1].reshape(expect.shape)
    call, saved_out = kind.bind(arrays, attrs, out)
    got = call()
    assert got is out and out.tobytes() == expect.tobytes()
    assert np.isnan(buffer[[0, -1]]).all()
    assert (saved is None) == (saved_out is None)
    buffer[:] = np.nan
    call()
    assert out.tobytes() == expect.tobytes() and np.isnan(buffer[[0, -1]]).all()


def _replay_against_eager(build, good, bad):
    """build(p) traced at p = good, then replayed as one Program with p
    set in place to `bad`; returns the replay's error and that of an eager
    build at `bad`. Tanh records are left unplanned: checked one by one."""
    p = dc.Parameter("p", good)
    with dc.Tape() as tape:
        build(p)
    program = dc.Program(tape.records, unplanned=[r for r in tape.records if r.kind is dc.PrimitiveKind.TANH])
    p.data[...] = bad
    with pytest.raises(dc.NonFiniteError) as replayed:
        program.run()
    with pytest.raises(dc.NonFiniteError) as eager:
        build(p)
    return str(replayed.value), str(eager.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replay_names_a_masked_bad_output():
    """exp overflows to inf, is negated, and relu turns it into 0, so the
    segment's last outputs are finite; the replay still names exp, as the
    eager build does."""
    replayed, eager = _replay_against_eager(
        lambda p: dc.sum_all(dc.relu(dc.scalar_multiply(dc.exp(p), -1.0))), [[1.0, 2.0]], [[1.0, 1e3]])
    assert replayed == eager == "exp: produced non-finite values"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replay_names_a_bad_output_before_a_rule_that_raises():
    """A bad buffered output before a rule that raises on its own (layer
    norm's variance check) or before an individually checked record (tanh,
    left unplanned) is named in place of that later error, as the eager
    build names it."""
    good, bad = [[1.0, 2.0, 3.0]], [[1.0, 1e3, 3.0]]
    replayed, eager = _replay_against_eager(lambda p: dc.sum_all(dc.layer_norm_rows(dc.exp(p))), good, bad)
    assert replayed == eager == "exp: produced non-finite values"
    replayed, eager = _replay_against_eager(
        lambda p: dc.sum_all(dc.tanh(dc.scalar_multiply(dc.exp(p), 1e300))), good, bad)
    assert replayed == eager == "exp: produced non-finite values"
    # With no bad output before it, the later rule's own error stands.
    replayed, eager = _replay_against_eager(
        lambda p: dc.sum_all(dc.layer_norm_rows(dc.scalar_multiply(p, 1e150))), good, [[1.0, -1e10, 3.0]])
    assert replayed == eager == "layer-normalize-per-row: row variance is not finite"


def _cut_graph(p, q):
    h = dc.tanh(dc.matmul(p, q))
    return dc.sum_all(dc.layer_norm_rows(dc.multiply(h, dc.exp(h))))


def test_program_is_bound_when_built():
    """With no run, a built Program's planned outputs are already inside
    their segment's checked stretch of the tape's storage, holding the
    traced values bit for bit (the unplanned tanh is in none), and
    backpropagating through them gives the gradients of a twin tape never
    built into a program."""
    rng = np.random.default_rng(60)
    p_values, q_values = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    p, q = dc.Parameter("p", p_values), dc.Parameter("q", q_values)
    with dc.Tape() as tape:
        out = _cut_graph(p, q)
    traced = [r.output.data for r in tape.records]
    recorded = [a.tobytes() for a in traced]
    tanh, = [r for r in tape.records if r.kind is dc.PrimitiveKind.TANH]
    calls = []
    program = dc.Program(tape.records, cuts={2: lambda: calls.append(1)}, unplanned=[tanh])
    stretches = [one for _, (one,), _ in program.segments]
    assert len(stretches) == 2 and not calls
    for i, r in enumerate(tape.records):
        assert r.output.data is traced[i]
        if r is tanh:
            assert not any(np.shares_memory(r.output.data, s) for s in stretches)
        else:
            assert np.shares_memory(r.output.data, stretches[i >= 2]), r.kind
        assert r.output.data.tobytes() == recorded[i], r.kind
    dc.backpropagate(tape, out)
    twin_p, twin_q = dc.Parameter("p", p_values), dc.Parameter("q", q_values)
    with dc.Tape() as twin:
        twin_out = _cut_graph(twin_p, twin_q)
    dc.backpropagate(twin, twin_out)
    assert p.gradient.tobytes() == twin_p.gradient.tobytes()
    assert q.gradient.tobytes() == twin_q.gradient.tobytes()
    assert p.gradient.any() and q.gradient.any()


def test_leaf_a_cut_rebinds_is_read_at_each_run():
    """A leaf that run() is given no value for, and a cut callback rebinds,
    is read again at each run, as KVCache leaves are in generation: its
    reader, which reads nothing else rebound, is not bound to the traced
    array."""
    p = dc.Parameter("p", [[1.0, 2.0]])
    leaf = dc.Tensor([[3.0, 4.0]])
    with dc.Tape() as tape:
        out = dc.sum_all(dc.multiply(dc.scalar_multiply(p, 2.0), leaf))
    program = dc.Program(tape.records, [leaf], cuts={1: lambda: setattr(leaf, "data", np.array([[5.0, 7.0]]))})
    program.run()
    assert out.item() == 2.0 * 5.0 + 4.0 * 7.0


def test_replays_check_once_per_segment(monkeypatch):
    """The finite check of a replay runs once per segment and chunk, over
    its stretch of the tape's storage, plus once per unplanned record. A
    replayed generated frame at the default heads (4 + 4, so 9 segments,
    one chunk each at these sizes) calls all_finite 33 times: once per
    segment and once for each of the 24 attention records (logits, scaled
    logits, softmax) whose shapes grow with the K/V caches. A replayed
    training step calls it once per chunk its segment spans, plus once per
    rebound leaf. (Layer norm's variance check is its own.)"""
    from dualface import model as dm, train as dt
    from dualface.data import FeatureSequence, MotionSequence

    calls, real = [0], dc.all_finite

    def counted(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(dc, "all_finite", counted)
    cfg = dm.ModelConfig(audio_dim=5, vertex_count=6, n_speakers=2, max_frames=8)
    params = dm.ModelParams(cfg, np.random.default_rng(50))
    rng = np.random.default_rng(51)
    for generate, make in ((dm.generate_motion, lambda t: FeatureSequence(rng.standard_normal((t, 5)))),
                           (dm.generate_audio, lambda t: MotionSequence(0.1 * rng.standard_normal((t, 6, 3)), 25.0))):
        per_length = []
        for t in (3, 4, 5):
            source = make(t)
            calls[0] = 0
            generate(params, source, 1)
            per_length.append(calls[0])
        assert per_length[2] - per_length[1] == per_length[1] - per_length[0] == 33, generate.__name__

    feats = FeatureSequence(rng.standard_normal((6, 5)))
    motion = MotionSequence(0.1 * rng.standard_normal((6, 6, 3)), 25.0)
    train_cfg = dt.TrainConfig()
    data = dt.step_arrays(feats, motion, train_cfg)
    program = dt._StepProgram(params, 0, data, train_cfg)
    calls[0] = 0
    program.replay(data, 1)
    (_, stretches, _), = program.segments
    assert len(data) > 2 and calls[0] == len(stretches) + len(data)


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


# ---------------------------------------------------------------------------
# random graphs

def _rowpick(x):
    """The last row, broadcast over every row."""
    rows = x.shape[0]
    return dc.broadcast_row(dc.slice_axis(x, 0, rows - 1, rows), rows)


def _rotate(x):
    """The columns rotated left by one."""
    return dc.concat_last(dc.slice_axis(x, 1, 1, x.shape[1]), dc.slice_axis(x, 1, 0, 1))


# Operations that keep a (rows, cols) node's shape: name -> (arity, build).
# `square` and `double` read one node twice; log reads only a node that
# exp, sigmoid or softmax made; matmul and transpose need rows == cols.
_GRAPH_OPS = {
    "add": (2, dc.add),
    "subtract": (2, dc.subtract),
    "multiply": (2, dc.multiply),
    "square": (1, lambda a: dc.multiply(a, a)),
    "double": (1, lambda a: dc.add(a, a)),
    "scale": (1, lambda a: dc.scalar_multiply(a, -0.7)),
    "relu": (1, dc.relu),
    "sigmoid": (1, dc.sigmoid),
    "tanh": (1, dc.tanh),
    "exp": (1, dc.exp),
    "log": (1, dc.log),
    "softmax": (1, dc.softmax_rows),
    "layer_norm": (1, dc.layer_norm_rows),
    "rowpick": (1, _rowpick),
    "rotate": (1, _rotate),
    "matmul": (2, dc.matmul),
    "transpose": (1, dc.transpose_last_two),
}
_POSITIVE_OPS = {"exp", "sigmoid", "softmax"}


@st.composite
def _graphs(draw):
    """A DAG over 1 or 2 parameters of one shape: 3 to 12 drawn operations,
    always with multiply(a, a) and add(a, a), each reading earlier nodes (a
    log with no positive node to read gets an exp first); a binary
    operation's second operand may be a constant instead (input None).
    Every node nothing reads feeds the scalar through a fixed projection."""
    rows, cols, n_params = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    names = [n for n in _GRAPH_OPS if rows == cols or n not in ("matmul", "transpose")]
    ops = draw(st.lists(st.sampled_from(names), min_size=1, max_size=10))
    for must in ("square", "double"):
        ops.insert(draw(st.integers(0, len(ops))), must)
    steps, positive, n_nodes = [], [], n_params
    for op in ops:
        if op == "log" and not positive:
            steps.append(("exp", (draw(st.integers(0, n_nodes - 1)),)))
            positive.append(n_nodes)
            n_nodes += 1
        pool = positive if op == "log" else range(n_nodes)
        inputs = [draw(st.sampled_from(pool)) for _ in range(_GRAPH_OPS[op][0])]
        if len(inputs) == 2 and draw(st.booleans()):
            inputs[1] = None
        steps.append((op, tuple(inputs)))
        if op in _POSITIVE_OPS:
            positive.append(n_nodes)
        n_nodes += 1
    read = [i for _, inputs in steps for i in inputs]
    sinks = [i for i in range(n_nodes) if i not in read]
    dangling = draw(st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=3))
    return (rows, cols), n_params, steps, sinks, dangling, draw(st.integers(0, 2**32 - 1))


def _graph_builder(graph, params, dangling=()):
    """build() of a drawn graph; each index in `dangling` adds two records
    that read that node and that nothing reads. Step k's constant operand
    is a plain Tensor, the same one in every build."""
    shape, _, steps, sinks, _, seed = graph
    rng = np.random.default_rng(seed)
    projections = [dc.Tensor(w) for w in rng.standard_normal((len(sinks), *shape))]
    size = (len(steps), *shape)
    constants = [dc.Tensor(c) for c in rng.choice([-1.0, 1.0], size) * rng.uniform(0.2, 1.5, size)]

    def build():
        nodes = list(params)
        for k, (op, inputs) in enumerate(steps):
            nodes.append(_GRAPH_OPS[op][1](*(constants[k] if i is None else nodes[i] for i in inputs)))
        for i in dangling:
            dc.multiply(dc.exp(dc.tanh(nodes[i])), nodes[i])
        reduce = (dc.sum_all, dc.mean_all)
        terms = [reduce[k % 2](dc.multiply(nodes[i], w)) for k, (i, w) in enumerate(zip(sinks, projections))]
        total = terms[0]
        for term in terms[1:]:
            total = dc.add(total, term)
        return total

    return build


class _Accumulator(np.ndarray):
    """A gradient array that keeps a copy of each array added into it."""

    def __iadd__(self, other):
        self.added.append(np.array(other))
        return super().__iadd__(other)


def _backward_passes(params, build, passes=1):
    """From zero gradients, one build and `passes` backward passes; per
    pass, each parameter's gradient after it and the arrays it added."""
    for p in params:
        p.gradient = np.zeros(p.shape).view(_Accumulator)
    with dc.Tape() as tape:
        out = build()
    result = []
    for _ in range(passes):
        for p in params:
            p.gradient.added = []
        dc.backpropagate(tape, out)
        result.append([(np.array(p.gradient), p.gradient.added) for p in params])
    return result


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graph=_graphs())
def test_random_graph_gradients(graph):
    """On drawn graphs with fan-out, multiply(a, a), add's aliased [g, g]
    and a parameter several records read: the tape gradient passes the
    finite-difference check at its defaults, a second backward pass adds
    bit for bit what the first added, onto it, and records that nothing
    reads leave the gradients bit-identical."""
    shape, n_params, steps, _, dangling, seed = graph
    reads = [sum(i in inputs for _, inputs in steps) for i in range(n_params)]
    assume(max(reads) >= 2)
    rng = np.random.default_rng(seed + 1)
    params = [dc.Parameter(f"p{i}", rng.choice([-1.0, 1.0], shape) * rng.uniform(0.2, 1.5, shape))
              for i in range(n_params)]
    build = _graph_builder(graph, params)
    try:
        with dc.Tape() as tape:
            build()
    except dc.NonFiniteError:
        assume(False)
    # Away from relu kinks, log's pole and exp's overflow.
    for r in tape.records:
        assume(np.abs(r.output.data).max() < 1e4)
        x = r.inputs[0].data
        if r.kind is dc.PrimitiveKind.RELU:
            assume(np.all((x == 0.0) | (np.abs(x) > 1e-3)))
        if r.kind is dc.PrimitiveKind.LOG:
            assume(x.min() > 1e-3)

    report = dc.check_gradients(params, build)
    assert report.passed, report.format()
    first, second = _backward_passes(params, build, passes=2)
    for (once, added), (twice, added_again) in zip(first, second):
        assert len(added_again) == len(added) and all(map(np.array_equal, added, added_again))
        expect = np.zeros_like(once)
        for a in added + added:
            expect += a
        assert np.array_equal(twice, expect)
    (with_dangling,) = _backward_passes(params, _graph_builder(graph, params, dangling))
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(first, with_dangling))
