import math
from types import SimpleNamespace

import numpy as np
import pytest

from qmop.branches import (
    CompressedTokens,
    PoolParams,
    PruneConfig,
    RelevanceMap,
    ResamplerParams,
    _blend,
    _minmax,
    pool_local,
    prune,
    prune_select,
    resample,
)
from qmop.bundle import synth_bundle
from qmop.linalg import DomainError, ShapeError, seeded_fill, softmax_rows
from qmop.trainer import GradDict, _pool_backward, _resample_backward


def run_resample(xs, p):
    """`resample` with its folded queries, as `pipeline.query_products`
    computes them."""
    return resample(xs, p, p.queries @ p.w_k)


def run_pool(bundles, p):
    """`pool_local` with its folded queries, as `pipeline.query_products`
    computes them."""
    return pool_local(bundles, p, p.q2d @ p.phi_k)


def relevance_oracle(bundle, g):
    """Independent per-token loop: cosine to EOS after projection, min-max."""
    raw = []
    for i in range(bundle.n_tokens):
        p = g @ bundle.patches[i]
        pn, en = np.linalg.norm(p), np.linalg.norm(bundle.eos_token)
        raw.append(0.0 if pn == 0 or en == 0
                   else float(p @ bundle.eos_token) / (pn * en))
    raw = np.array(raw)
    lo, hi = raw.min(), raw.max()
    return np.full_like(raw, 0.5) if hi == lo else (raw - lo) / (hi - lo)


def blend_scores(bundle, g, lam, metric="cosine"):
    """Prune's `_blend` scores for one bundle under the relevance map g."""
    return _blend(bundle, bundle.patches @ g.T, lam, metric)


class TestPruneScores:
    def test_minmax_hand_values(self):
        out = _minmax(np.array([0.1, 0.4, 0.2, 0.3]))
        assert np.allclose(out, [0.0, 1.0, 1 / 3, 2 / 3])

    def test_blend_hand_values(self):
        imp = np.array([0.0, 1.0, 1 / 3, 2 / 3])
        rel = np.array([1.0, 0.0, 0.5, 0.5])
        s = 0.5 * imp + 0.5 * rel
        assert np.allclose(s, [0.5, 0.5, 0.41667, 0.58333], atol=1e-5)

    def test_lambda_one_is_importance(self, tiny_bundle):
        g = seeded_fill(0, 6, 8)
        s = blend_scores(tiny_bundle, g, 1.0)
        assert np.allclose(s, _minmax(tiny_bundle.cls_attention), atol=1e-15)

    def test_lambda_zero_is_relevance(self, tiny_bundle):
        g = seeded_fill(0, 6, 8)
        s = blend_scores(tiny_bundle, g, 0.0)
        assert np.allclose(s, relevance_oracle(tiny_bundle, g), atol=1e-12)

    def test_blend_matches_oracle(self, tiny_bundle):
        g = seeded_fill(1, 6, 8)
        s = blend_scores(tiny_bundle, g, 0.3)
        expected = 0.3 * _minmax(tiny_bundle.cls_attention) \
            + 0.7 * relevance_oracle(tiny_bundle, g)
        assert np.allclose(s, expected, atol=1e-12)
        assert (s >= 0).all() and (s <= 1).all()

    def test_zero_norm_token_scores_zero_cosine(self, tiny_bundle):
        g = np.zeros((6, 8))  # every projected token has zero norm
        s = blend_scores(tiny_bundle, g, 0.0)
        assert np.allclose(s, 0.5)  # constant criterion -> all 0.5

    @pytest.mark.parametrize("zero", [None, 0, 27, "eos"],
                             ids=["none", "first-row", "middle-row", "eos"])
    def test_cosine_reads_the_projection_in_place(self, zero):
        # each token's cosine numerator is its own row of one product over
        # the whole projection, so a zero-norm token (cosine 0) or a zero EOS
        # vector leaves every other token's bits as they are
        b = synth_bundle(1, 8, 8, 16, 64)
        projected = b.patches @ seeded_fill(1, 64, 16).T
        if zero == "eos":
            b.eos_token = np.zeros(64)
        elif zero is not None:
            projected[zero] = 0.0
        dots = projected @ b.eos_token
        pn, en = np.linalg.norm(projected, axis=1), np.linalg.norm(b.eos_token)
        raw = np.array([d / (p * en) if p > 0 and en > 0 else 0.0
                        for d, p in zip(dots, pn)])
        want = 0.3 * _minmax(b.cls_attention) + 0.7 * _minmax(raw)
        got = _blend(b, projected, 0.3, "cosine")
        assert got.tobytes() == want.tobytes()

    def test_bad_lambda(self):
        # prune reads lambda from its config, which checks it once
        with pytest.raises(DomainError):
            PruneConfig(lam=1.5, m_out=1, metric="cosine")

    def test_unknown_metric(self):
        with pytest.raises(DomainError, match="metric"):
            PruneConfig(lam=0.5, m_out=1, metric="dot")

    def test_blend_rejects_an_unknown_metric(self, tiny_bundle):
        # `PruneConfig` rejects one first; `_blend` checks on its own too
        projected = tiny_bundle.patches @ seeded_fill(2, 6, 8).T
        with pytest.raises(DomainError,
                           match="^unknown relevance metric 'dot'$"):
            _blend(tiny_bundle, projected, 0.5, "dot")

    def test_neg_euclidean_metric(self, tiny_bundle):
        g = seeded_fill(2, 6, 8)
        s = blend_scores(tiny_bundle, g, 0.0, "neg_euclidean")
        raw = -np.linalg.norm(tiny_bundle.patches @ g.T
                              - tiny_bundle.eos_token, axis=1)
        assert np.allclose(s, _minmax(raw), atol=1e-12)


def sort_oracle(scores, m):
    """Full sort with (score desc, index asc) ordering, kept set ascending."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:m])


class TestPruneSelect:
    def test_keep_all_preserves_order(self):
        kept = prune_select(seeded_fill(1, 1, 5)[0], 5)
        assert list(kept) == [0, 1, 2, 3, 4]

    def test_hand_case(self):
        kept = prune_select(np.array([0.5, 0.25, 0.35, 0.4]), 2)
        assert list(kept) == [0, 3]

    def test_all_ties_keep_lowest_indices(self):
        assert list(prune_select(np.full(4, 0.7), 2)) == [0, 1]

    def test_matches_sort_oracle_including_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(4, 65))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            m = int(rng.integers(1, n + 1))
            assert list(prune_select(scores, m)) == sort_oracle(scores, m)

    def test_rows_bit_identical_to_input(self, tiny_bundle):
        # prune returns the bundle's own rows at the selected indices
        rel = RelevanceMap(g=seeded_fill(4, 6, 8))
        out = prune([tiny_bundle], rel,
                    PruneConfig(lam=0.5, m_out=3, metric="cosine"))
        scores = _blend(tiny_bundle, tiny_bundle.patches @ rel.g.T, 0.5,
                        "cosine")
        kept = prune_select(scores, 3)
        assert out.tokens.shape == (3, 8)
        for row, idx in zip(out.tokens, kept):
            assert row.tobytes() == tiny_bundle.patches[idx].tobytes()

    def test_score_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.random(8)
        kept = set(prune_select(scores, 4))
        for i in list(kept):
            bumped = scores.copy()
            bumped[i] += 0.5
            assert i in set(prune_select(bumped, 4))

    def test_rank_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random(10)
        base = list(prune_select(scores, 4))
        assert list(prune_select(3.7 * scores + 11.0, 4)) == base

    def test_m_out_of_range(self):
        for m in (0, 5):
            with pytest.raises(DomainError):
                prune_select(np.ones(4), m)


class TestResample:
    def params(self, m=2, c=3, seed=0):
        return ResamplerParams(
            queries=seeded_fill(seed, m, c),
            w_k=seeded_fill(seed + 1, c, c),
            w_v=seeded_fill(seed + 2, c, c),
        )

    def test_single_token(self):
        p = self.params(m=3, c=4)
        x = seeded_fill(9, 1, 4)
        out = run_resample([x], p)
        expected = (x @ p.w_v.T)[0]
        assert np.allclose(out.tokens, np.tile(expected, (3, 1)), atol=1e-12)

    def test_permutation_invariant(self):
        p = self.params(m=2, c=3)
        x = seeded_fill(10, 6, 3)
        perm = np.array([4, 0, 5, 2, 1, 3])
        assert np.allclose(run_resample([x], p).tokens,
                           run_resample([x[perm]], p).tokens, atol=1e-9)

    def test_matches_naive_reference(self):
        p = self.params(m=2, c=3, seed=0)
        x = seeded_fill(11, 3, 3)
        k, v = x @ p.w_k.T, x @ p.w_v.T
        ref = np.zeros((2, 3))
        for i in range(2):
            scores = [p.queries[i] @ k[j] / math.sqrt(3) for j in range(3)]
            e = np.exp(scores - max(scores))
            w = e / e.sum()
            for j in range(3):
                ref[i] += w[j] * v[j]
        assert np.allclose(run_resample([x], p).tokens, ref, atol=1e-9)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            run_resample([seeded_fill(0, 3, 4)], self.params(m=2, c=3))

    @pytest.mark.parametrize("m,n,c", [
        (2, 9, 5),       # fewer queries than tokens
        (7, 3, 5),       # more queries than tokens
        (4, 1, 6),       # a single token
        (9, 36, 16),     # 6x6 grid to 3x3, the paper's 4:1 ratio
        (144, 576, 24),  # paper token counts at a narrow width
    ])
    def test_equals_project_every_token(self, m, n, c):
        sigma = 1.0 / math.sqrt(c)
        p = ResamplerParams(
            queries=seeded_fill(20, m, c, sigma=sigma),
            w_k=seeded_fill(21, c, c, sigma=sigma),
            w_v=seeded_fill(22, c, c, sigma=sigma),
        )
        x = seeded_fill(23, n, c)
        out = run_resample([x], p)
        assert out.tokens.shape == (m, c)
        assert np.max(np.abs(out.tokens
                             - project_every_token_oracle(x, p))) <= 1e-12

    def test_returned_fields_rebuild_output(self):
        # one group of all N tokens per sample, viewed, not copied
        p = self.params(m=3, c=4)
        x = seeded_fill(12, 5, 4)
        out = run_resample([x], p)
        assert len(out.keys) == 1 and out.keys[0].shape == (1, 5, 4)
        assert np.shares_memory(out.keys[0], x)
        assert np.array_equal(out.keys[0][0], x)
        assert len(out.attn) == 1 and out.attn[0].shape == (1, 3, 5)
        assert np.allclose(out.attn[0].sum(axis=-1), 1.0, atol=1e-15)
        assert np.array_equal(out.pooled @ p.w_v.T, out.tokens)


def project_every_token_oracle(x, params):
    """Resample as first defined: project every token to a key and a value,
    then let the queries attend over all of them."""
    keys, vals = x @ params.w_k.T, x @ params.w_v.T
    scores = params.queries @ keys.T / math.sqrt(x.shape[1])
    return softmax_rows(scores) @ vals


def pool_params(grid_h, grid_w, stride, c, seed=0, shared=False):
    h, w = grid_h // stride, grid_w // stride
    return PoolParams(
        q2d=seeded_fill(seed, h * w, c),
        phi_k=seeded_fill(seed + 1, c, c),
        phi_v=seeded_fill(seed + 2, c, c),
        stride=stride, grid_h=h, grid_w=w, shared_phi=shared,
    )


def masked_attention_oracle(bundle, params):
    """Global attention with each query masked to its own window's keys."""
    s, c = params.stride, bundle.c_vis
    h, w = params.grid_h, params.grid_w
    phi_v = params.phi_k if params.shared_phi else params.phi_v
    keys = bundle.patches @ params.phi_k.T
    vals = bundle.patches @ phi_v.T
    out = np.zeros((h * w, c))
    for i in range(h):
        for j in range(w):
            idx = [(s * i + a) * bundle.grid_w + (s * j + b)
                   for a in range(s) for b in range(s)]
            q = params.q2d[i * w + j]
            scores = np.full(bundle.n_tokens, -np.inf)
            scores[idx] = keys[idx] @ q / math.sqrt(c)
            weights = softmax_rows(scores[None, :])[0]
            out[i * w + j] = weights @ vals
    return out


def project_then_attend_oracle(bundle, params):
    """Pool as first defined: project every window cell to a key and a value,
    then attend over the window's keys."""
    s, c = params.stride, bundle.c_vis
    phi_v = params.phi_k if params.shared_phi else params.phi_v
    x2d = bundle.patches.reshape(bundle.grid_h, bundle.grid_w, c)
    out = np.zeros((params.grid_h * params.grid_w, c))
    for i in range(params.grid_h):
        for j in range(params.grid_w):
            m = i * params.grid_w + j
            cells = x2d[s * i:s * (i + 1), s * j:s * (j + 1)].reshape(s * s, c)
            keys, vals = cells @ params.phi_k.T, cells @ phi_v.T
            scores = keys @ params.q2d[m] / math.sqrt(c)
            out[m] = softmax_rows(scores[None, :])[0] @ vals
    return out


class TestPoolLocal:
    def test_identical_window_tokens_ignore_query(self):
        b = synth_bundle(0, 2, 2, 4, 3)
        x = seeded_fill(5, 1, 4)
        b.patches = np.tile(x, (4, 1))
        p = pool_params(2, 2, 2, 4)
        out = run_pool([b], p)
        assert np.allclose(out.tokens, x @ p.phi_v.T, atol=1e-12)

    def test_zero_query_means_window_mean(self):
        b = synth_bundle(1, 4, 4, 5, 3)
        p = pool_params(4, 4, 2, 5)
        p.q2d = np.zeros_like(p.q2d)
        out = run_pool([b], p)
        x2d = b.patches.reshape(4, 4, 5)
        for i in range(2):
            for j in range(2):
                window = x2d[2 * i:2 * i + 2, 2 * j:2 * j + 2].reshape(4, 5)
                mean = (window @ p.phi_v.T).mean(axis=0)
                assert np.allclose(out.tokens[i * 2 + j], mean, atol=1e-12)

    @pytest.mark.parametrize("grid,stride", [((4, 4), 2), ((6, 6), 2),
                                             ((6, 6), 3)])
    def test_equals_masked_global_attention(self, grid, stride):
        gh, gw = grid
        b = synth_bundle(2, gh, gw, 5, 3)
        p = pool_params(gh, gw, stride, 5, seed=3)
        out = run_pool([b], p)
        assert np.max(np.abs(out.tokens
                             - masked_attention_oracle(b, p))) <= 1e-9

    @pytest.mark.parametrize("grid,stride,shared", [
        ((4, 4), 2, False), ((6, 6), 3, False), ((6, 9), 3, False),
        ((4, 8), 2, False), ((6, 6), 3, True), ((4, 6), 2, True)])
    def test_equals_project_then_attend(self, grid, stride, shared):
        gh, gw = grid
        b = synth_bundle(5, gh, gw, 7, 3)
        p = pool_params(gh, gw, stride, 7, seed=4, shared=shared)
        out = run_pool([b], p)
        assert np.max(np.abs(out.tokens
                             - project_then_attend_oracle(b, p))) <= 1e-12

    def test_nondivisible_grid(self):
        b = synth_bundle(0, 4, 4, 5, 3)
        p = pool_params(6, 6, 3, 5)  # expects a 6x6 grid
        with pytest.raises(ShapeError, match="stride"):
            run_pool([b], p)

    def test_shared_phi_uses_one_projection(self):
        b = synth_bundle(3, 4, 4, 5, 3)
        p = pool_params(4, 4, 2, 5, shared=True)
        q = pool_params(4, 4, 2, 5, shared=False)
        q.phi_v = q.phi_k.copy()
        assert np.allclose(run_pool([b], p).tokens,
                           run_pool([b], q).tokens, atol=1e-15)

    def test_not_permutation_invariant(self):
        # spatial branches must be order-sensitive
        b = synth_bundle(4, 4, 4, 5, 3)
        p = pool_params(4, 4, 2, 5)
        base = run_pool([b], p).tokens
        perm = np.roll(np.arange(16), 5)
        b.patches = b.patches[perm]
        assert not np.allclose(run_pool([b], p).tokens, base, atol=1e-9)

    @pytest.mark.parametrize("shared", [False, True])
    def test_returned_fields_rebuild_output(self, shared):
        # M groups of one query per sample, each over its window's cells
        bundles = [synth_bundle(6 + i, 4, 6, 5, 3) for i in range(2)]
        p = pool_params(4, 6, 2, 5, seed=7, shared=shared)
        out = run_pool(bundles, p)
        phi_v = p.phi_k if shared else p.phi_v
        assert len(out.keys) == len(out.attn) == 2
        for b, keys, attn in zip(bundles, out.keys, out.attn):
            assert keys.shape == (6, 4, 5) and attn.shape == (6, 1, 4)
            x2d = b.patches.reshape(4, 6, 5)
            assert np.array_equal(keys[1], x2d[0:2, 2:4].reshape(4, 5))
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-15)
        assert np.array_equal(out.pooled @ phi_v.T, out.tokens)


@pytest.mark.parametrize("batch", [1, 2])
def test_pool_over_the_whole_grid_is_resample(batch):
    # pool and resample are one operator at two key scopes: a pool whose one
    # window spans the grid (stride = grid side, M = 1) is a resample of its
    # one query over every token, forward and backward
    pool = pool_params(4, 4, 4, 5, seed=9)
    res = ResamplerParams(queries=pool.q2d, w_k=pool.phi_k, w_v=pool.phi_v)
    params = SimpleNamespace(pool=pool, resampler=res)
    bundles = [synth_bundle(10 + i, 4, 4, 5, 3) for i in range(batch)]
    by_pool = run_pool(bundles, pool)
    by_res = run_resample([b.patches for b in bundles], res)
    assert np.max(np.abs(by_pool.tokens - by_res.tokens)) <= 1e-12
    d_out = seeded_fill(11, batch, 5)
    grads = GradDict()
    _pool_backward(params, by_pool, d_out, grads)
    _resample_backward(params, by_res, d_out, grads)
    for ours, theirs in (("q2d", "queries"), ("phi_k", "w_k"),
                         ("phi_v", "w_v")):
        assert np.max(np.abs(grads[f"pool.{ours}"]
                             - grads[f"resampler.{theirs}"])) <= 1e-12


def test_all_branches_emit_m_rows(tiny_bundle, tiny_params):
    from qmop.pipeline import run_branches
    outs = run_branches([tiny_bundle], tiny_params)
    for out in outs.values():
        assert out.tokens.shape[0] == tiny_params.prune_cfg.m_out
