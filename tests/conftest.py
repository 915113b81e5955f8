import contextlib
import os
import threading
from collections import Counter

import numpy as np
import pytest

from qmop import init_projector_params, linalg, pipeline, synth_bundle
from qmop.bundle import FeatureBundle
from qmop.linalg import seeded_fill

# tiny default geometry used across the suite
TINY = dict(grid_h=4, grid_w=4, c_vis=8, c_txt=6, d_llm=8,
            m_tokens=4, stride=2)


def quantized(b: FeatureBundle) -> FeatureBundle:
    """The bundle as it would read back after a float32 disk round trip."""
    f32 = lambda a: a.astype(np.float32).astype(np.float64)
    return FeatureBundle(
        b.grid_h, b.grid_w, b.c_vis, b.c_txt, f32(b.patches),
        f32(b.cls_token), f32(b.eos_token), f32(b.cls_attention), b.text_raw,
    )


@contextlib.contextmanager
def fed_fifo(tmp_path, payload: bytes):
    """A FIFO under `tmp_path` that a writer thread feeds `payload` to and
    then closes. On exit the writer must have finished."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def on_cpus(monkeypatch, n: int) -> None:
    """Make the process look allowed on `n` CPUs, the size of the thread
    pool `linalg.seeded_fills` draws on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def watch_draws(monkeypatch, bad_seed=None, error=None) -> list:
    """Wrap `linalg.draw_into`, which a `seeded_fills` pool thread calls
    for each matrix, to record each draw's (seed, thread) and to raise
    `error` instead of drawing `bad_seed`; returns the record."""
    seen = []
    real = linalg.draw_into

    def draw(out, seed, sigma):
        seen.append((seed, threading.get_ident()))
        if seed == bad_seed:
            raise error
        return real(out, seed, sigma)

    monkeypatch.setattr(linalg, "draw_into", draw)
    return seen


@pytest.fixture
def tiny_bundle():
    return synth_bundle(7, TINY["grid_h"], TINY["grid_w"],
                        TINY["c_vis"], TINY["c_txt"])


@pytest.fixture
def tiny_params():
    return init_projector_params(
        TINY["grid_h"], TINY["grid_w"], TINY["c_vis"], TINY["c_txt"],
        TINY["d_llm"], TINY["m_tokens"], TINY["stride"], seed=0,
    )


@pytest.fixture
def tiny_target():
    return seeded_fill(99, TINY["m_tokens"], TINY["d_llm"])


@pytest.fixture
def spy(monkeypatch):
    """spy(module, attr, key) replaces `module.attr` with a wrapper that
    counts its calls by `key(*args)` (default: the attribute name) and
    returns the Counter. A call counts only if the program reaches the
    function through the module attribute, which is what span tracers that
    patch these attributes rely on."""
    def install(module, attr, key=None):
        calls = Counter()
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr if key is None else key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
        return calls
    return install


@pytest.fixture
def branch_calls(spy):
    """`pipeline._run_branch` calls counted by branch name."""
    return spy(pipeline, "_run_branch", key=lambda name, *_: name)
