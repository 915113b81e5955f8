"""Pipeline configuration: one JSON file, every key known, every value
checked against its field's annotated type and the domain in `_DOMAINS`,
cross-field consistency enforced at construction. Unknown keys are hard
errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field

from .branches import METRICS
from .linalg import ACTIVATIONS, ShapeError
from .pipeline import pooled_grid
from .router import BRANCHES
from .trainer import AnnealSchedule


class ConfigError(ValueError):
    pass


# Seeds are Philox keys. Below 2**64, every subseed derived from one (at
# most seed * 1000003 + step * batch + i) stays inside Philox's 128-bit key.
SEED_BOUND = 2 ** 64


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

    def __post_init__(self):
        """Cross-field rules; `_from_json` has checked each field alone."""
        try:
            pooled_grid(self.grid_h, self.grid_w, self.pool_stride,
                        self.m_tokens)
        except ShapeError as exc:
            raise ConfigError(str(exc)) from None
        parse_mode(self.inference_mode)


# field -> (what a valid value is, test); the type comes from the annotation
_DOMAINS = {
    **dict.fromkeys(("grid_h", "grid_w", "c_vis", "c_txt", "d_llm",
                     "m_tokens", "pool_stride", "router_hidden",
                     "batch_size"), (">= 1", lambda v: v >= 1)),
    "seed": ("in [0, 2**64)", lambda v: 0 <= v < SEED_BOUND),
    "prune_lambda": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "lr": ("> 0", lambda v: v > 0),
    "relevance_metric": (f"one of {list(METRICS)}", METRICS.__contains__),
    "activation": (f"one of {list(ACTIVATIONS)}", ACTIVATIONS.__contains__),
}


def parse_mode(spec: str) -> tuple:
    """'stage1' | 'train' | 'topk:K' | 'threshold:T' -> the mode tuple
    `pipeline.forward` takes. 'train' is the noise-free gate at tau 1."""
    if spec == "stage1":
        return ("stage1",)
    if spec == "train":
        return ("train", 1.0, 0.0, 0)
    kind, _, arg = spec.partition(":")
    if kind == "topk":
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"bad topk arg {arg!r}") from None
        if not 1 <= k <= len(BRANCHES):
            raise ConfigError(
                f"topk k must be in [1,{len(BRANCHES)}], got {k}")
        return ("topk", k)
    if kind == "threshold":
        try:
            theta = float(arg)
        except ValueError:
            raise ConfigError(f"bad threshold arg {arg!r}") from None
        if not 0.0 <= theta < 1.0:
            raise ConfigError(f"threshold must be in [0,1), got {theta}")
        return ("threshold", theta)
    raise ConfigError(f"unknown mode {spec!r}")


def _typed(name: str, value, hint):
    """`value` if it has the annotated type and lies in `_DOMAINS[name]`: no
    bool passes for a number, and a float field takes an int or a finite
    float."""
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, name)
    kind, *null = typing.get_args(hint) or (hint,)     # `kind | None`
    if value is None and null:
        return None
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        what = "a finite number" if kind is float else f"of type {kind.__name__}"
        raise ConfigError(f"{name} must be {what}"
                          f"{' or null' if null else ''}, got {value!r}")
    rule, test = _DOMAINS.get(name, ("", None))
    if test and not test(value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return value


def _from_json(cls, raw, path: str = ""):
    """Dataclass `cls` built from the JSON object `raw` found at `path`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be a JSON object")
    hints = typing.get_type_hints(cls)      # the dataclass's fields
    at = f"{path}." if path else ""
    for key in raw:
        if key not in hints:
            raise ConfigError(f"unknown config key {at + key!r}")
    values = {k: _typed(at + k, v, hints[k]) for k, v in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:       # the dataclass's own cross-field checks
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, or nesting too deep
            raise ConfigError(f"not a JSON file: {exc}") from None
    return _from_json(PipelineConfig, raw)
