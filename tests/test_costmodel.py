import dataclasses

import pytest

from qmop.costmodel import (
    LLM_FIT,
    cost_report,
    kv_cache,
    llm_cost,
    projector_flops,
)
from qmop.linalg import DomainError

# published complexity-table rows: tokens -> (TFLOPs, KV cache in M)
TABLE = {576: (3.82, 302.0), 144: (0.94, 75.5), 64: (0.42, 33.6),
         36: (0.23, 18.9), 16: (0.10, 8.4), 4: (0.03, 2.1)}


class TestLlmFit:
    def test_anchor_solve(self):
        a, b = LLM_FIT
        assert a == pytest.approx(6.493e-3, rel=1e-3)
        assert b == pytest.approx(2.411e-7, rel=1e-3)

    def test_zero_tokens_zero_cost(self):
        assert llm_cost(0) == 0.0

    def test_anchors_reproduce_themselves(self):
        assert llm_cost(576) == pytest.approx(3.82, abs=1e-9)
        assert llm_cost(144) == pytest.approx(0.94, abs=1e-9)

    @pytest.mark.parametrize("tokens", [64, 36, 16])
    def test_nonanchor_rows(self, tokens):
        assert llm_cost(tokens) == pytest.approx(TABLE[tokens][0], abs=0.01)

    def test_four_token_row(self):
        assert llm_cost(4) == pytest.approx(TABLE[4][0], abs=0.005)

    def test_negative_tokens(self):
        with pytest.raises(DomainError):
            llm_cost(-1)


class TestKvCache:
    @pytest.mark.parametrize("tokens", sorted(TABLE))
    def test_table_rows(self, tokens):
        assert kv_cache(tokens) == pytest.approx(TABLE[tokens][1], abs=0.05)

    def test_exactly_linear(self):
        assert kv_cache(10) + kv_cache(20) == pytest.approx(kv_cache(30),
                                                            abs=1e-12)


class TestProjectorFlops:
    def test_zero_config(self):
        out = projector_flops(0, 0, 1024, 768, 4096)
        assert out["total"] == 0.0

    def test_doubling_c_quadruples_resampler_projection(self):
        def resample_terms(c):
            # the resampler is affine in N: the N-free part is the C^2
            # projection, the N-proportional part is the attention
            one = projector_flops(576, 144, c, 768, 4096)["resample"]
            two = projector_flops(2 * 576, 144, c, 768, 4096)["resample"]
            attn = two - one
            return one - attn, attn

        proj_base, attn_base = resample_terms(512)
        proj_doubled, attn_doubled = resample_terms(1024)
        # projections run on the M queries, not the N tokens; an inference
        # request pays the value projection only, the key projection is
        # folded once per params object
        assert proj_base == pytest.approx(2 * 144 * 512 * 512 / 1e9,
                                          rel=1e-12)
        assert attn_base == pytest.approx(2 * 2 * 144 * 576 * 512 / 1e9,
                                          rel=1e-12)
        assert proj_doubled == pytest.approx(4 * proj_base, rel=1e-12)
        assert attn_doubled == pytest.approx(2 * attn_base, rel=1e-12)

    def test_llava_scale_order_of_magnitude(self):
        out = projector_flops(576, 144, 1024, 768, 4096)
        branch_total = out["total"] - out["router"]
        assert 0.729 <= branch_total <= 72.9  # within 10x of 7.29G

    def test_monotone_in_dims(self):
        base = projector_flops(576, 144, 1024, 768, 4096)["total"]
        for kwargs in (dict(n_in=600), dict(m_out=200), dict(c_vis=1100),
                       dict(c_txt=800), dict(d_llm=5000)):
            args = dict(n_in=576, m_out=144, c_vis=1024, c_txt=768,
                        d_llm=4096)
            args.update(kwargs)
            assert projector_flops(**args)["total"] >= base

    def test_topk2_cheaper_than_topk3(self):
        full = projector_flops(576, 144, 1024, 768, 4096)
        two = projector_flops(576, 144, 1024, 768, 4096,
                              active=("pool", "resample"))
        assert two["total"] < full["total"]


def test_cost_report_fields():
    rep = dataclasses.asdict(cost_report(144, 576, 1024, 768, 4096))
    assert set(rep) == {"n_tokens", "llm_tflops", "kv_cache_m",
                        "projector_gflops", "router_gflops"}
    assert rep["llm_tflops"] == pytest.approx(0.94, abs=1e-9)
    assert rep["kv_cache_m"] == pytest.approx(75.5, abs=1e-9)
