"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: explicit Python loops, O(n^2) DFT,
scalar math. None of it imports the package's autodiff or model code, so a
bug in the production path cannot hide behind a shared formula.
"""

import math

import numpy as np

LN_EPS = 1e-5
NORM_FLOOR = 1e-12
MASK_VALUE = -1e30


def assert_close(actual, expected, tol=1e-12, label=""):
    """Mixed absolute/relative bound: |a-e| <= tol * (1 + |a| + |e|)."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    assert a.shape == e.shape, f"{label}: shape {a.shape} != {e.shape}"
    bound = tol * (1.0 + np.abs(a) + np.abs(e))
    err = np.abs(a - e)
    worst = float((err - bound).max())
    assert np.all(err <= bound), f"{label}: max excess {worst:.3e} at tol {tol:.1e}"


def layer_norm_rows(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + LN_EPS)
    return out


def softmax_row(logits):
    m = max(logits)
    ex = [math.exp(v - m) for v in logits]
    s = sum(ex)
    return [v / s for v in ex]


def attention_block(x_q, x_kv, q_ws, k_ws, v_ws, w_out, causal=True):
    """Multi-head scaled dot-product context, concatenated and projected.

    Returns the pre-residual context; callers add the residual and normalize
    to mirror a full block.
    """
    t = x_q.shape[0]
    head_outs = []
    for qw, kw, vw in zip(q_ws, k_ws, v_ws):
        dk = qw.shape[1]
        q = x_q @ qw
        k = x_kv @ kw
        v = x_kv @ vw
        scale = 1.0 / np.sqrt(dk)
        ctx = np.zeros((t, vw.shape[1]))
        for i in range(t):
            logits = []
            for j in range(t):
                s = 0.0
                for a in range(dk):
                    s += q[i, a] * k[j, a]
                s *= scale
                if causal and j > i:
                    s += MASK_VALUE
                logits.append(s)
            weights = softmax_row(logits)
            for j in range(t):
                for b in range(vw.shape[1]):
                    ctx[i, b] += weights[j] * v[j, b]
        head_outs.append(ctx)
    return np.concatenate(head_outs, axis=1) @ w_out


def self_attention(x, q_ws, k_ws, v_ws, w_out):
    ctx = attention_block(x, x, q_ws, k_ws, v_ws, w_out, causal=True)
    return layer_norm_rows(x + ctx)


def cross_attention(x_q, x_kv, q_ws, k_ws, v_ws, w_out, ff1_w, ff1_b, ff2_w, ff2_b):
    ctx = attention_block(x_q, x_kv, q_ws, k_ws, v_ws, w_out, causal=True)
    x = layer_norm_rows(x_q + ctx)
    hidden = np.maximum(x @ ff1_w + ff1_b.reshape(1, -1), 0.0)
    ff = hidden @ ff2_w + ff2_b.reshape(1, -1)
    return layer_norm_rows(x + ff)


def _sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def speaker_modulation(x, style_row, fc1_w, fc1_b, fc2_w, fc2_b):
    t = x.shape[0]
    style = np.asarray(style_row, dtype=np.float64).ravel()
    out = np.empty_like(x)
    for i in range(t):
        joint = np.concatenate([style, x[i]])
        hidden = np.maximum(joint @ fc1_w + fc1_b.ravel(), 0.0)
        gate_logits = hidden @ fc2_w + fc2_b.ravel()
        for j in range(x.shape[1]):
            out[i, j] = _sigmoid(gate_logits[j]) * x[i, j]
    return out


def motion_kernel(displacements, sigma=None):
    t = displacements.shape[0]
    flat = displacements.reshape(t, -1)
    d2 = np.zeros((t, t))
    for i in range(t):
        for j in range(t):
            d2[i, j] = float(((flat[i] - flat[j]) ** 2).sum())
    if sigma is None:
        dists = [math.sqrt(d2[i, j]) for i in range(t) for j in range(i + 1, t)]
        sigma = float(np.median(dists)) if dists else 1.0
        if sigma < NORM_FLOOR:
            sigma = 1.0
    w = np.empty((t, t))
    for i in range(t):
        for j in range(t):
            w[i, j] = math.exp(-d2[i, j] / (2.0 * sigma * sigma))
    return w, sigma


def _unit_rows(m):
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        sq = float((m[i] ** 2).sum())
        if sq < NORM_FLOOR**2:
            sq = NORM_FLOOR**2
        out[i] = m[i] / math.sqrt(sq)
    return out


def ccrl_direction(p, q, displacements, sigma=None, anchor_weighting="uniform"):
    t = p.shape[0]
    w, _ = motion_kernel(displacements, sigma)
    pn = _unit_rows(np.asarray(p, dtype=np.float64))
    qn = _unit_rows(np.asarray(q, dtype=np.float64))
    losses = []
    for k in range(t):
        denom = 0.0
        for j in range(t):
            if j == k:
                continue
            temper = 1.0 - w[k, j]
            denom += math.exp(float(pn[k] @ qn[j]) * temper)
            denom += math.exp(float(pn[k] @ pn[j]) * temper)
        losses.append(math.log(denom) - float(pn[k] @ qn[k]))
    if anchor_weighting == "kernel":
        mass = w.mean(axis=1)
        aw = mass / mass.sum()
        return float(sum(a * l for a, l in zip(aw, losses)))
    return float(sum(losses) / t)


def ccrl_total(x, y, x_round, y_round, displacements, sigma=None, anchor_weighting="uniform"):
    return ccrl_direction(x, y, displacements, sigma, anchor_weighting) + ccrl_direction(
        x_round, y_round, displacements, sigma, anchor_weighting
    )


def smooth_l1(a, b):
    diff = np.asarray(a, dtype=np.float64).ravel() - np.asarray(b, dtype=np.float64).ravel()
    total = 0.0
    for x in diff:
        ax = abs(x)
        total += 0.5 * ax * ax if ax < 1.0 else ax - 0.5
    return total / diff.size


def mse(a, b):
    diff = np.asarray(a, dtype=np.float64).ravel() - np.asarray(b, dtype=np.float64).ravel()
    return float(sum(x * x for x in diff) / diff.size)


def lip_vertex_error(pred, gt, lip_indices):
    t = pred.shape[0]
    total = 0.0
    for f in range(t):
        worst = 0.0
        for v in lip_indices:
            d = pred[f, v] - gt[f, v]
            dist = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            if dist > worst:
                worst = dist
        total += worst
    return total / t


def dyn(displacements):
    t, nv = displacements.shape[0], displacements.shape[1]
    mags = np.empty((t, nv))
    for f in range(t):
        for v in range(nv):
            d = displacements[f, v]
            mags[f, v] = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    out = np.empty(nv)
    for v in range(nv):
        mu = mags[:, v].mean()
        out[v] = math.sqrt(((mags[:, v] - mu) ** 2).mean())
    return out


def fdd(pred, gt, upper_indices):
    dg = dyn(gt)
    dp = dyn(pred)
    total = 0.0
    for v in upper_indices:
        total += dg[v] - dp[v]
    return total / len(upper_indices)


def adam_step(params, state, cfg):
    """Per-parameter bias-corrected Adam, one parameter at a time: the
    reference for the library's flat-buffer update. `state` holds `step`
    and `moments`, a dict of name -> [m, v]; a non-finite gradient or update
    raises FloatingPointError naming the parameter."""
    for name, p in params.named_parameters():
        if not np.isfinite(p.gradient).all():
            raise FloatingPointError(f"gradient of {name}")
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    if cfg.grad_clip is not None:
        total = sum(float((p.gradient**2).sum()) for p in params.parameters())
        norm = np.sqrt(total)
        if norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
            for p in params.parameters():
                p.gradient *= scale
    for name, p in params.named_parameters():
        mv = state.moments.get(name)
        if mv is None:
            mv = [np.zeros_like(p.value.data), np.zeros_like(p.value.data)]
            state.moments[name] = mv
        g = p.gradient
        mv[0] = cfg.beta1 * mv[0] + (1.0 - cfg.beta1) * g
        mv[1] = cfg.beta2 * mv[1] + (1.0 - cfg.beta2) * (g * g)
        m_hat = mv[0] / c1
        v_hat = mv[1] / c2
        updated = p.value.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if not np.isfinite(updated).all():
            raise FloatingPointError(f"update of {name}")
        p.value.data[...] = updated
        p.gradient.fill(0.0)


def gradient_check(parameters, analytic, evaluate, step):
    """The verdict of a central-difference gradient check, one entry at a
    time: the reference for the library's batched checker.

    `parameters` are (name, array) pairs whose arrays `evaluate` reads, and
    `analytic` their gradients. evaluate() rebuilds the objective from the
    arrays' current values and returns it as a float, with the sign pattern
    (> 0) of the input of each relu the build applies. Each entry is set in
    place to its value +step, then -step, and restored; an entry whose sign
    patterns differ between the two is flagged, any other judged. Returns
    (n_entries, n_flagged, worst): worst holds the ten judged entries of
    largest relative error, as (name, index, analytic, numeric, rel_err),
    taken from a stable sort of all of them."""
    judged, flagged = [], 0
    for (name, values), grad in zip(parameters, analytic):
        for index in np.ndindex(values.shape):
            saved = values[index]
            values[index] = saved + step
            f_plus, signs_plus = evaluate()
            values[index] = saved - step
            f_minus, signs_minus = evaluate()
            values[index] = saved
            if any(not np.array_equal(x, y) for x, y in zip(signs_plus, signs_minus)):
                flagged += 1
                continue
            a = float(grad[index])
            n = (f_plus - f_minus) / (2.0 * step)
            judged.append((name, index, a, n, abs(a - n) / max(1e-8, abs(a) + abs(n))))
    return len(judged), flagged, sorted(judged, key=lambda e: e[4], reverse=True)[:10]
