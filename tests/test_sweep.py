"""A seeded sweep of small configs through the command line, in process.

Each config is drawn from a fixed ``random.Random`` seed and written as a
config file; ``rsmsim ber`` runs it at ``--threads 1``, and a run that
completes runs again at ``--threads 2`` and as ``rsmsim abep``. The tests
then hold every run to the command line's contract:

- the exit code is 0, 2 (configuration) or 3 (simulation failure), and
  no exception escapes ``main``;
- an exit of 2 or 3 prints one line that names its cause;
- a completed run writes the same CSV bytes at 1 and at 2 threads;
- ``abep`` prints the analytic columns that ``ber`` prints.

The configs span both systems, every constellation kind and order, the
three threshold designs, both threshold sources and both selections,
1 to 16 clusters and every ``n_active`` from 1 to min(n_tx, n_rx), with
at most 40 words and 20 channels per SNR point; one in eight asks for
one stream more than min(n_tx, n_rx), a configuration error. A second
seeded draw of such configs sets one float key of each to inf, -inf or
nan, which must exit 2 naming its field. The tally of exit causes of
both sets is printed on a ``[SWEEP]`` line.
"""

import collections
import contextlib
import io
import itertools
import random
import re

import pytest

from rsmsim.cli import main
from test_cli import FLOAT_KEYS

SEED = 20261019
N_CONFIGS = 40
NONFINITE_SEED = SEED + 1
NONFINITE = ("inf", "-inf", "nan")
#: one config per (float key, non-finite value)
N_NONFINITE = len(NONFINITE) * len(FLOAT_KEYS)

CONSTELLATIONS = [
    *(("psk", order) for order in (2, 4, 8, 16, 32, 64)),
    *(("qam", order) for order in (4, 16, 64)),
    ("apsk", 16),
]
#: (threshold_mode, threshold_source, selection) of the RSM configs, in turn
RSM_MODES = list(
    itertools.product(
        ("exact", "msa", "hsa"), ("perfect", "estimated"), ("exhaustive", "all_antennas")
    )
)

#: the line an exit of 2 or 3 prints starts with one of these
CAUSE_PREFIXES = {
    2: ("config error: ", "error: threshold design: "),
    3: ("simulation failed: ",),
}


def draw_config(rng, i, overstep):
    """The lines of config ``i`` drawn from ``rng``; ``overstep`` asks for
    one stream more than the arrays carry."""
    kind, order = CONSTELLATIONS[i % len(CONSTELLATIONS)]
    n_tx, n_rx = rng.randint(1, 32), rng.randint(1, 8)
    limit = min(n_tx, n_rx)
    streams = limit + 1 if overstep else rng.randint(1, limit)
    snrs = sorted(rng.sample(range(-10, 41, 2), rng.randint(1, 3)))
    lines = [
        f"n_tx = {n_tx}",
        f"n_rx = {n_rx}",
        f"n_clusters = {rng.randint(1, 16)}",
        f"n_rays = {rng.randint(1, 10)}",
        f"angular_spread_deg = {rng.uniform(0.0, 20.0):.3f}",
        f"constellation = {kind}",
        f"order = {order}",
        f"snr_db = {','.join(map(str, snrs))}",
        f"trials_per_point = {rng.randint(1, 40)}",
        f"channels_per_point = {rng.randint(1, 20)}",
        f"seed = {rng.randrange(10**6)}",
    ]
    if kind == "apsk":
        lines.append(f"ring_ratio = {rng.uniform(1.5, 3.5):.3f}")
    if i % 3 == 2:
        lines += ["system = fd_svd", f"n_modes = {streams}"]
    else:
        mode, source, selection = RSM_MODES[(i - (i + 1) // 3) % len(RSM_MODES)]
        lines += [
            "system = rsm",
            f"n_active = {streams}",
            f"threshold_mode = {mode}",
            f"threshold_source = {source}",
            f"n_pilots = {rng.randint(1, 8)}",
            f"selection = {selection}",
        ]
    return lines


def sweep_configs():
    """The config texts of the sweep, in order."""
    rng = random.Random(SEED)
    for i in range(N_CONFIGS):
        # One config in eight asks for one stream more than the arrays carry.
        yield "\n".join(draw_config(rng, i, overstep=i % 8 == 7)) + "\n"


def nonfinite_configs():
    """(config text, field) of configs drawn as the sweep's are, none of
    them overstepping, each with one float key set to inf, -inf or nan,
    one config per key and value; ``field`` is the field that the config
    error must name."""
    rng = random.Random(NONFINITE_SEED)
    keys = sorted(FLOAT_KEYS)
    for i in range(N_NONFINITE):
        key, value = keys[i % len(keys)], NONFINITE[i // len(keys)]
        lines = [line for line in draw_config(rng, i, overstep=False) if line.split(" = ")[0] != key]
        yield "\n".join([*lines, f"{key} = {value}"]) + "\n", FLOAT_KEYS[key]


def cause(code, first_line):
    """The tally key of an exit: its code and its message, numbers elided."""
    if code == 0:
        return "0"
    message = first_line.split(": ", 1)[-1]
    return f"{code} " + re.sub(r"(?<![\w.])[-+]?\d[\d.e+-]*", "#", message)[:100]


#: ``field`` is the field a non-finite config must name, None for the others
Run = collections.namedtuple("Run", "text field code stderr ber_1 ber_2 abep")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Every config's runs, with the tally printed on a ``[SWEEP]`` line.

    An exception that escapes ``main`` is recorded as the run's code.
    """
    runs = []
    base = tmp_path_factory.mktemp("sweep")
    configs = [*((text, None) for text in sweep_configs()), *nonfinite_configs()]
    for i, (text, field) in enumerate(configs):
        config = base / f"c{i}.cfg"
        config.write_text(text)

        def call(*args, out):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = main([*args, "--config", str(config), "--out", str(base / out)])
                except Exception as err:  # noqa: BLE001 - recorded, and a failure
                    code = f"raised {err!r}"
            return code, stderr.getvalue()

        code, stderr = call("ber", "--threads", "1", out=f"c{i}.t1.csv")
        ber_1 = ber_2 = abep = None
        if code == 0:
            ber_1 = (base / f"c{i}.t1.csv").read_bytes()
            assert call("ber", "--threads", "2", out=f"c{i}.t2.csv")[0] == 0, text
            ber_2 = (base / f"c{i}.t2.csv").read_bytes()
            assert call("abep", out=f"c{i}.abep.csv")[0] == 0, text
            abep = (base / f"c{i}.abep.csv").read_text()
        runs.append(Run(text, field, code, stderr, ber_1, ber_2, abep))
    tally = collections.Counter(
        cause(r.code, r.stderr.splitlines()[0] if r.stderr else "") for r in runs
    )
    counts = "; ".join(f"{key}: {n}" for key, n in sorted(tally.items()))
    print(f"\n[SWEEP] {len(runs)} configs, exit causes {counts}")
    return runs


def test_configs_cover_the_space():
    texts = list(sweep_configs())
    fields = [dict(line.split(" = ") for line in t.splitlines()) for t in texts]
    assert {(f["constellation"], int(f["order"])) for f in fields} == set(CONSTELLATIONS)
    rsm = [f for f in fields if f["system"] == "rsm"]
    assert {(f["threshold_mode"], f["threshold_source"], f["selection"]) for f in rsm} == set(
        RSM_MODES
    )
    assert {f["system"] for f in fields} == {"rsm", "fd_svd"}
    clusters = {int(f["n_clusters"]) for f in fields}
    assert min(clusters) == 1 and max(clusters) == 16
    for key in ("n_active", "n_modes"):
        streams = {
            (int(f[key]), min(int(f["n_tx"]), int(f["n_rx"]))) for f in fields if key in f
        }
        assert {s for s, limit in streams if s == limit + 1}, key
        assert {s for s, limit in streams if s == limit}, key
        assert {s for s, limit in streams if s == 1}, key
    for f in fields:
        assert int(f["trials_per_point"]) <= 40 and int(f["channels_per_point"]) <= 20
    nonfinite = [dict(line.split(" = ") for line in t.splitlines()) for t, _ in nonfinite_configs()]
    pairs = {(key, f[key]) for f in nonfinite for key in FLOAT_KEYS if f.get(key) in NONFINITE}
    assert len(pairs) == len(nonfinite) == N_NONFINITE
    assert {f["system"] for f in nonfinite} == {"rsm", "fd_svd"}


def test_nonfinite_values_exit_2_naming_the_field(sweep):
    nonfinite = [run for run in sweep if run.field]
    assert len(nonfinite) == N_NONFINITE
    for run in nonfinite:
        assert run.code == 2 and run.field in run.stderr, run


def test_exit_codes(sweep):
    for run in sweep:
        assert run.code in (0, 2, 3), run.text


def test_failures_print_one_line_naming_the_cause(sweep):
    for run in sweep:
        if run.code:
            lines = run.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(CAUSE_PREFIXES[run.code]), run
            assert len(lines[0].split(": ", 1)[-1]) > 10, run


def test_thread_count_keeps_the_csv_bytes(sweep):
    completed = [run for run in sweep if run.code == 0]
    assert completed
    for run in completed:
        assert run.ber_1 == run.ber_2, run.text


def test_abep_prints_the_analytic_columns_of_ber(sweep):
    for run in sweep:
        if run.code == 0:
            ber = [line.split(",") for line in run.ber_1.decode().splitlines()]
            abep = [line.split(",") for line in run.abep.splitlines()]
            assert abep[0] == ["snr_db", "abep_analytic", "abep_estimated"]
            assert [[row[0], row[4], row[5]] for row in ber[1:]] == abep[1:], run.text
