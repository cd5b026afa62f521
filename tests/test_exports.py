"""Every name a module exports, and every one the benchmark tracer wraps, must exist;
and a traced one-thread ``ber`` run goes through the tracer whole."""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import rsmsim

MODULES = [rsmsim] + [
    importlib.import_module(f"rsmsim.{info.name}") for info in pkgutil.iter_modules(rsmsim.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def load_bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    # bench/spans.py wraps these attributes; a renamed one would only show
    # up as a missing wrap target in a traced benchmark run.
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in load_bench_spans().TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


TRACED_CONFIGS = {
    # 2 points of 20 links, 8 links (4000 words of 2 symbols) per block
    "rsm_estimated": (
        "system = rsm\nn_tx = 16\nn_rx = 4\nn_active = 2\nconstellation = psk\norder = 4\n"
        "threshold_source = estimated\nsnr_db = 6,10\ntrials_per_point = 4000\n"
        "channels_per_point = 20\nseed = 5\n",
        2 * 3,
        4000 * 20 * 2,
    ),
    # 3 points of 12 links, 8 links per block
    "fd_svd": (
        "system = fd_svd\nn_tx = 16\nn_rx = 4\nn_modes = 2\nconstellation = qam\norder = 16\n"
        "snr_db = -4:0:2\ntrials_per_point = 4000\nchannels_per_point = 12\nseed = 5\n",
        3 * 2,
        4000 * 12 * 3,
    ),
}


@pytest.mark.parametrize("name", TRACED_CONFIGS)
def test_traced_one_thread_ber_runs_every_block_inline(name, tmp_path):
    # The tracer refuses calls from any thread but its own, so at one
    # thread every block must run in the calling thread: its blocks and
    # words count the whole sweep.
    text, blocks, words = TRACED_CONFIGS[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(text)
    spans = load_bench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("rsmsim.cli")
        argv = ["ber", "--config", str(config), "--out", str(tmp_path / "out.csv")]
        assert cli.main([*argv, "--threads", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert not [key for key in tracer.errors if key[1] == "RuntimeError"]
    trace = tmp_path / "trace.json"
    tracer.dump(trace)
    metrics = spans.summarize(json.loads(trace.read_text()), wall_s=1.0)
    block_spans = sum(span[0] == "simulate.block" for span in tracer.spans)
    assert block_spans == (blocks if name.startswith("rsm") else 0)
    assert metrics["simulate.blocks"] == blocks
    assert metrics["simulate.words"] == words
