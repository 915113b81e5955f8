import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmop import config
from qmop.config import ConfigError, PipelineConfig, load_config, parse_mode
from qmop.linalg import ShapeError
from qmop.pipeline import forward, pooled_grid
from qmop.trainer import AnnealSchedule

FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)]
SCHEDULE_FIELDS = [f.name for f in dataclasses.fields(AnnealSchedule)]
SIZES = ("grid_h", "grid_w", "c_vis", "c_txt", "d_llm", "m_tokens",
         "pool_stride", "batch_size")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2 ** 64 - 1, 2 ** 64, -2 ** 63, 10 ** 400])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
# values a valid config could hold, so that some configs load
plausible = (st.integers(0, 4) | st.sampled_from([2.0, 0.5, 1, 0.0])
             | st.sampled_from(["cosine", "neg_euclidean", "gelu", "relu",
                                "topk:1", "threshold:0.3", "train"])
             | st.dictionaries(st.sampled_from(SCHEDULE_FIELDS + ["tau"]),
                               st.floats(0.1, 6.0) | json_values,
                               max_size=3))
configs = st.dictionaries(st.sampled_from(FIELDS + ["typo"]),
                          plausible | json_values, max_size=5)


def finite_number(v):
    return type(v) in (int, float) and math.isfinite(v)


def assert_well_typed(cfg):
    for name in SIZES:
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) >= 1
    rh = cfg.router_hidden
    assert rh is None or (type(rh) is int and rh >= 1)
    assert type(cfg.seed) is int and 0 <= cfg.seed < 2 ** 64
    assert finite_number(cfg.prune_lambda) and 0 <= cfg.prune_lambda <= 1
    assert finite_number(cfg.lr) and cfg.lr > 0
    assert cfg.relevance_metric in ("cosine", "neg_euclidean")
    assert cfg.activation in ("gelu", "relu")
    assert type(cfg.shared_pool_phi) is bool
    assert type(cfg.inference_mode) is str
    parse_mode(cfg.inference_mode)
    assert type(cfg.schedule) is AnnealSchedule
    assert all(finite_number(getattr(cfg.schedule, name))
               for name in SCHEDULE_FIELDS)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@settings(max_examples=400, deadline=None)
@given(raw=configs)
def test_load_config_rejects_or_returns_a_well_typed_config(cfg_path, raw):
    cfg_path.write_text(json.dumps(raw))
    try:
        cfg = load_config(cfg_path)
    except ConfigError:
        return
    assert_well_typed(cfg)


@pytest.mark.parametrize("text", ["[]", "[" * 100_000, '{"schedule": 1}'],
                         ids=["list", "deep", "schedule-int"])
def test_non_object_is_config_error(cfg_path, text):
    cfg_path.write_text(text)
    with pytest.raises(ConfigError, match="JSON"):
        load_config(cfg_path)


def test_ints_in_float_fields_are_kept(cfg_path):
    # the report echoes the config as given, so 1 must not become 1.0
    cfg_path.write_text(json.dumps({
        "prune_lambda": 1, "lr": 2, "seed": 2 ** 64 - 1,
        "schedule": {"tau0": 6, "tau_min": 1}}))
    cfg = load_config(cfg_path)
    assert_well_typed(cfg)
    assert dataclasses.asdict(cfg)["schedule"]["tau0"] == 6
    assert type(cfg.lr) is int


def test_null_optional_field_is_none(cfg_path):
    # router_hidden is `int | None`: null asks for the default width
    cfg_path.write_text(json.dumps({"router_hidden": 3}))
    assert load_config(cfg_path).router_hidden == 3
    cfg_path.write_text(json.dumps({"router_hidden": None}))
    cfg = load_config(cfg_path)
    assert cfg.router_hidden is None
    assert_well_typed(cfg)


@pytest.mark.parametrize("spec,mode", [
    ("stage1", ("stage1",)), ("train", ("train", 1.0, 0.0, 0)),
    ("topk:2", ("topk", 2)), ("threshold:0.3", ("threshold", 0.3))])
def test_parse_mode_gives_forward_modes(tiny_bundle, tiny_params, spec,
                                        mode):
    parsed = parse_mode(spec)
    assert parsed == mode
    assert [type(x) for x in parsed] == [type(x) for x in mode]
    assert forward([tiny_bundle], tiny_params, parsed).tokens.shape == (4, 8)


@pytest.mark.parametrize("spec,message", [
    ("topk:x", "bad topk"), ("topk:0", r"topk k must be in \[1,3\]"),
    ("topk:4", r"topk k must be in \[1,3\]"), ("threshold:x", "bad threshold"),
    ("threshold:1", r"threshold must be in \[0,1\)"),
    ("bogus", "unknown mode")])
def test_parse_mode_rejects(spec, message):
    with pytest.raises(ConfigError, match=message):
        parse_mode(spec)


def test_domains_name_config_fields():
    assert set(config._DOMAINS) <= set(FIELDS)


@pytest.mark.parametrize("geometry", [dict(grid_h=5), dict(pool_stride=3),
                                      dict(m_tokens=5)],
                         ids=["grid", "stride", "m_tokens"])
def test_pooled_grid_rule_is_the_pipelines(geometry):
    # the config checks its geometry with the function the params are
    # built with, and says what that function says
    with pytest.raises(ConfigError) as config_err:
        PipelineConfig(**geometry)
    cfg = {**dataclasses.asdict(PipelineConfig()), **geometry}
    with pytest.raises(ShapeError) as shape_err:
        pooled_grid(cfg["grid_h"], cfg["grid_w"], cfg["pool_stride"],
                    cfg["m_tokens"])
    assert str(config_err.value) == str(shape_err.value)
