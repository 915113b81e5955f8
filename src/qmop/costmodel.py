"""Analytic FLOPs / KV-cache estimators.

The LLM-side cost is modeled as a(n) = a*n + b*n^2, fit exactly through the
two published anchor rows (per-token MLP work plus attention's quadratic
term); the fit is the constant `LLM_FIT`. KV cache is exactly proportional
to the token count. Projector FLOPs are closed-form multiply-accumulate
counts (2 FLOPs per MAC); softmax and activation costs are excluded as
sub-percent. `cost_report` takes every dimension; `qmop cost` holds the
LLaVA-1.5-scale defaults.
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


def _fit_anchors() -> tuple[float, float]:
    """Exact (a, b) solve of cost(n) = a*n + b*n^2 through both anchors."""
    (n1, c1), (n2, c2) = ANCHOR_A, ANCHOR_B
    b = (n1 * c2 - n2 * c1) / (n1 * n2 * n2 - n2 * n1 * n1)
    return (c1 - b * n1 * n1) / n1, b


LLM_FIT = _fit_anchors()   # (a, b) in TFLOPs


@dataclass
class CostReport:
    n_tokens: int
    llm_tflops: float
    kv_cache_m: float
    projector_gflops: float
    router_gflops: float


def llm_cost(n_tokens: float) -> float:
    if n_tokens < 0:
        raise DomainError(f"token count must be >= 0, got {n_tokens}")
    a, b = LLM_FIT
    return a * n_tokens + b * n_tokens * n_tokens


def kv_cache(n_tokens: float) -> float:
    if n_tokens < 0:
        raise DomainError(f"token count must be >= 0, got {n_tokens}")
    return n_tokens * KV_M_PER_TOKEN


def _attend_flops(m: int, keys_read: int, c: int) -> int:
    """`branches._attend` as one inference request runs it: pooled @ w_v.T
    on the M rows, plus scores and weighted sum over every (query, key) pair
    read. Its folded queries, q @ w_k, depend only on the params, and
    inference computes them once per params object
    (`pipeline.ProjectorParams.query_fold`), so they are not priced here. A
    training forward computes them on every call: 2*M*C^2 more per attention
    branch."""
    return 2 * m * c * c + 2 * 2 * keys_read * c


def projector_flops(
    n_in: int, m_out: int, c_vis: int, c_txt: int, d_llm: int,
    active: tuple[str, ...], router_hidden: int | None = None,
) -> dict[str, float]:
    """Per-branch, router, and output-MLP GFLOPs (2 FLOPs per MAC).

    The text encoder that produces the query is outside this model, so only
    the gate MLP itself is counted. Pool and resample are one attention
    operator, priced by `_attend_flops`: their K/V projections fold onto the
    M queries, so their C^2 terms scale with M, not N, and one inference
    request pays only the value projection's.
    Branch terms are reported separately so top-k skipping is visible.
    """
    if min(n_in, m_out) <= 0:
        zero = dict.fromkeys(BRANCHES, 0.0)
        return {**zero, "out_mlp": 0.0, "router": 0.0, "total": 0.0}
    c, c2, d = c_vis, c_txt, d_llm
    n, m = n_in, m_out

    flops = {
        # resample: each of the M queries reads all N tokens; pool: each
        # reads its own window, N/M cells
        "resample": _attend_flops(m, m * n, c),
        "pool": _attend_flops(m, n, c),
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


def cost_report(n_tokens: int, n_in: int, c_vis: int, c_txt: int,
                d_llm: int, active: tuple[str, ...] = BRANCHES,
                router_hidden: int | None = None) -> CostReport:
    proj = projector_flops(n_in, n_tokens, c_vis, c_txt, d_llm,
                           router_hidden=router_hidden, active=active)
    return CostReport(
        n_tokens=n_tokens,
        llm_tflops=llm_cost(n_tokens),
        kv_cache_m=kv_cache(n_tokens),
        projector_gflops=proj["total"] - proj["router"],
        router_gflops=proj["router"],
    )
