"""Analytic FLOPs / KV-cache estimators.

The LLM-side cost is modeled as a(n) = a*n + b*n^2, fit exactly through two
anchor rows (per-token MLP work plus attention's quadratic term). KV cache is
exactly proportional to the token count. Projector FLOPs are closed-form
multiply-accumulate counts (2 FLOPs per MAC); softmax and activation costs
are excluded as sub-percent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DomainError
from .router import BRANCHES, hidden_width

# Published complexity-table anchors for the 7B baseline:
# 576 tokens -> 3.82 TFLOPs / 302.0 M KV; 144 tokens -> 0.94 TFLOPs / 75.5 M.
ANCHOR_A = (576, 3.82)
ANCHOR_B = (144, 0.94)
KV_M_PER_TOKEN = 302.0 / 576.0

# LLaVA-1.5-scale projector dims used when the CLI is not given explicit ones.
DEFAULT_DIMS = dict(c_vis=1024, c_txt=768, d_llm=4096, n_in=576)


@dataclass
class LlmCostAnchors:
    anchor_a: tuple[float, float] = ANCHOR_A
    anchor_b: tuple[float, float] = ANCHOR_B


@dataclass
class CostReport:
    n_tokens: int
    llm_tflops: float
    kv_cache_m: float
    projector_gflops: float
    router_gflops: float


def fit_llm_model(anchors: LlmCostAnchors = LlmCostAnchors()) -> tuple[float, float]:
    """Exact (a, b) solve of cost(n) = a*n + b*n^2 through both anchors."""
    (n1, c1), (n2, c2) = anchors.anchor_a, anchors.anchor_b
    det = n1 * n2 * n2 - n2 * n1 * n1
    if det == 0:
        raise DomainError(f"anchor token counts {n1}, {n2} give a singular fit")
    b = (n1 * c2 - n2 * c1) / det
    a = (c1 - b * n1 * n1) / n1
    if a <= 0:
        raise DomainError(f"fit produced non-positive linear term a={a}")
    return a, b


def llm_cost(n_tokens: float, fit: tuple[float, float] | None = None) -> float:
    if n_tokens < 0:
        raise DomainError(f"token count must be >= 0, got {n_tokens}")
    a, b = fit if fit is not None else fit_llm_model()
    return a * n_tokens + b * n_tokens * n_tokens


def kv_cache(n_tokens: float, m_per_token: float = KV_M_PER_TOKEN) -> float:
    if n_tokens < 0:
        raise DomainError(f"token count must be >= 0, got {n_tokens}")
    return n_tokens * m_per_token


def projector_flops(
    n_in: int, m_out: int, c_vis: int, c_txt: int, d_llm: int,
    router_hidden: int | None = None,
    active: tuple[str, ...] = BRANCHES,
) -> dict[str, float]:
    """Per-branch, router, and output-MLP GFLOPs (2 FLOPs per MAC).

    The text encoder that produces the query is outside this model, so only
    the gate MLP itself is counted. Pool and resample fold their K/V
    projections onto the M queries, so their C^2 terms scale with M, not N.
    Branch terms are reported separately so top-k skipping is visible.
    """
    if min(n_in, m_out) <= 0:
        zero = dict.fromkeys(BRANCHES, 0.0)
        return {**zero, "out_mlp": 0.0, "router": 0.0, "total": 0.0}
    c, c2, d = c_vis, c_txt, d_llm
    n, m = n_in, m_out

    flops = {
        # queries @ w_k and pooled @ w_v.T on the M rows + M queries
        # attending over the N raw tokens (scores and weighted sum)
        "resample": 2 * 2 * m * c * c + 2 * 2 * m * n * c,
        # q2d @ phi_k and pooled @ phi_v.T on the M rows + per-window
        # scores and weighted sum over the raw cells (M windows of s^2 = N/M)
        "pool": 2 * 2 * m * c * c + 2 * 2 * n * c,
        # relevance projection to text space + cosine dot/norms
        "prune": 2 * n * c2 * c + 2 * 3 * n * c2,
        # shared output MLP on the fused M tokens
        "out_mlp": 2 * m * c * c + 2 * m * c * d,
    }
    hidden = hidden_width(c + c2, router_hidden)
    flops["router"] = 2 * hidden * (c + c2) + 2 * len(BRANCHES) * hidden
    branch_total = sum(flops[b] for b in BRANCHES if b in active)
    flops["total"] = branch_total + flops["out_mlp"] + flops["router"]
    return {k: v / 1e9 for k, v in flops.items()}


def cost_report(n_tokens: int, n_in: int | None = None,
                c_vis: int | None = None, c_txt: int | None = None,
                d_llm: int | None = None,
                active: tuple[str, ...] = BRANCHES,
                router_hidden: int | None = None) -> CostReport:
    dims = dict(DEFAULT_DIMS)
    for key, val in (("n_in", n_in), ("c_vis", c_vis),
                     ("c_txt", c_txt), ("d_llm", d_llm)):
        if val is not None:
            dims[key] = val
    proj = projector_flops(dims["n_in"], n_tokens, dims["c_vis"],
                           dims["c_txt"], dims["d_llm"],
                           router_hidden=router_hidden, active=active)
    return CostReport(
        n_tokens=n_tokens,
        llm_tflops=llm_cost(n_tokens),
        kv_cache_m=kv_cache(n_tokens),
        projector_gflops=proj["total"] - proj["router"],
        router_gflops=proj["router"],
    )
