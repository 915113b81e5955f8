"""Pipeline configuration: one JSON file, every key known, cross-field
consistency enforced at load time. Unknown keys are hard errors so typos
cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .router import BRANCHES
from .trainer import AnnealSchedule


class ConfigError(ValueError):
    pass


_SCHEDULE_KEYS = {"tau0", "tau_min", "decay", "gumbel0", "gumbel_decay"}


@dataclass
class PipelineConfig:
    grid_h: int = 4
    grid_w: int = 4
    c_vis: int = 8
    c_txt: int = 6
    d_llm: int = 8
    m_tokens: int = 4
    pool_stride: int = 2
    router_hidden: int | None = None
    prune_lambda: float = 0.5
    relevance_metric: str = "cosine"
    inference_mode: str = "topk:2"
    activation: str = "gelu"
    shared_pool_phi: bool = False
    seed: int = 0
    batch_size: int = 4
    lr: float = 0.1
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    def validate(self) -> None:
        if min(self.grid_h, self.grid_w, self.c_vis, self.c_txt,
               self.d_llm, self.m_tokens, self.pool_stride) < 1:
            raise ConfigError("all dimensions must be >= 1")
        s = self.pool_stride
        if self.grid_h % s or self.grid_w % s:
            raise ConfigError(
                f"grid {self.grid_h}x{self.grid_w} not divisible by stride {s}"
            )
        hw = (self.grid_h // s) * (self.grid_w // s)
        if self.m_tokens != hw:
            raise ConfigError(
                f"m_tokens {self.m_tokens} != pooled grid size {hw} at stride {s}"
            )
        if self.m_tokens > self.n_tokens:
            raise ConfigError("m_tokens exceeds input token count")
        rh = self.router_hidden
        if rh is not None and (isinstance(rh, bool) or not isinstance(rh, int)
                               or rh < 1):
            raise ConfigError(
                f"router_hidden must be null or an integer >= 1, got {rh!r}")
        if not 0.0 <= self.prune_lambda <= 1.0:
            raise ConfigError(f"prune_lambda must be in [0,1]")
        if self.relevance_metric not in ("cosine", "neg_euclidean"):
            raise ConfigError(f"unknown relevance_metric {self.relevance_metric!r}")
        if self.activation not in ("gelu", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        parse_mode(self.inference_mode)

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "schedule"}
        d["schedule"] = dict(self.schedule.__dict__)
        return d


def parse_mode(spec: str) -> tuple[str, float]:
    """'stage1' | 'train' | 'topk:K' | 'threshold:T' -> (kind, arg)."""
    if spec in ("stage1", "train"):
        return (spec, 0.0)
    kind, _, arg = spec.partition(":")
    if kind == "topk":
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"bad topk arg {arg!r}") from None
        if not 1 <= k <= len(BRANCHES):
            raise ConfigError(
                f"topk k must be in [1,{len(BRANCHES)}], got {k}")
        return ("topk", float(k))
    if kind == "threshold":
        try:
            theta = float(arg)
        except ValueError:
            raise ConfigError(f"bad threshold arg {arg!r}") from None
        if not 0.0 <= theta < 1.0:
            raise ConfigError(f"threshold must be in [0,1), got {theta}")
        return ("threshold", theta)
    raise ConfigError(f"unknown mode {spec!r}")


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # bad JSON or bytes that are not UTF-8
            raise ConfigError(f"not a JSON file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = PipelineConfig()
    known = set(cfg.__dict__) - {"schedule"}
    for key, val in raw.items():
        if key == "schedule":
            if not isinstance(val, dict):
                raise ConfigError("schedule must be an object")
            bad = set(val) - _SCHEDULE_KEYS
            if bad:
                raise ConfigError(f"unknown schedule keys: {sorted(bad)}")
            try:
                cfg.schedule = replace(cfg.schedule, **val)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"schedule: {exc}") from None
        elif key in known:
            setattr(cfg, key, val)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg.validate()
    return cfg
