"""rsmsim benchmark: three CLI workloads, end-to-end timings, traced layers.

    python3 bench/run.py --workload fig3_ber --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every measurement is a fresh child interpreter (``bench/child.py``) that
calls the public CLI entry ``rsmsim.cli.main`` once, one child at a
time, with ``OPENBLAS_NUM_THREADS=1``. The workload seed is passed to
the CLI through ``--seed``.

``--trace 0`` reports the end-to-end metrics as medians over the
children of one run: set-up children first, then workload children until
``--seconds`` have passed (at least one). ``--trace 1`` runs the
workload once untraced and twice traced, all at one thread so the
per-layer self times partition the wall time. It checks that the two
traced runs repeat every count exactly and write the same CSV bytes as
the untraced run, and reports the per-layer metrics (medians of the two
traced runs) with ``trace.overhead_s`` = traced minus untraced wall;
``--seconds`` does not apply to it.

Every CSV is checked: against the golden files in ``bench/golden`` at
the default seed, structurally at any other seed. The last line of
stdout is one JSON object with ``correct``, ``attempted`` (SNR points),
``failed`` (SNR points not produced or failing the check) and
``metrics``; the full record, stamped with the environment, is written
under ``bench/out``. The exit code is 0 only if every check passed.

Only ``time.perf_counter`` and ``resource.getrusage`` are used to
measure; nothing drops caches, pins threads or changes machine settings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
DEFAULT_SEED = 1
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170

HEADER = "snr_db,ber_total,ber_spatial,ber_mod,abep_analytic,abep_estimated,ci95"
EXACT_COLUMNS = ("ber_total", "ber_spatial", "ber_mod")
ANALYTIC_COLUMNS = ("abep_analytic", "abep_estimated")
ANALYTIC_RTOL = 1e-9

ENV_NOTE = (
    "timed with time.perf_counter and resource.getrusage only; no cache "
    "dropping, no pinning, no machine-setting changes"
)


@dataclass(frozen=True)
class Workload:
    """One ``rsmsim ber`` run: its config, thread count and expected grid."""

    config: str
    threads: int
    snr_db: tuple[float, ...]
    bits_per_word: int


WORKLOADS = {
    "fig3_ber": Workload("presets/fig3.cfg", 1, tuple(range(0, 21, 2)), 8),
    "mc_estimated": Workload("bench/configs/mc_estimated.cfg", 2, tuple(range(6, 21, 2)), 8),
    "fd_baseline": Workload("bench/configs/fd_baseline.cfg", 1, tuple(range(-8, 9, 2)), 8),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run a child at all."""


def _child(wl: Workload, seed: int, out: Path, *extra: str, threads: int | None = None) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--config", wl.config,
        "--seed", str(seed),
        "--threads", str(wl.threads if threads is None else threads),
        "--out", str(out),
        *extra,
    ]
    out.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("RSM_SIM_LOG", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {cmd}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        **versions,
        "OPENBLAS_NUM_THREADS": "1 (forced in every child, so threads stay <= nproc)",
        "measurement": ENV_NOTE,
    }


def _parse_csv(text: str) -> tuple[str, list[dict[str, float]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    header = lines[0]
    names = header.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"row {line!r} does not match header {header!r}")
        rows.append({n: float(f) for n, f in zip(names, fields)})
    return header, rows


def _row_problems(row: dict[str, float], golden: dict[str, float] | None) -> list[str]:
    problems = []
    for name, value in row.items():
        if name == "snr_db":
            continue
        if math.isnan(value):
            if name != "abep_estimated":
                problems.append(f"{name} is NaN")
        elif not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value!r} outside [0, 1]")
    if not math.isfinite(row["ci95"]):
        problems.append("ci95 is not finite")
    if golden is None:
        return problems
    for name in EXACT_COLUMNS:
        if row[name] != golden[name]:
            problems.append(f"{name}={row[name]!r}, golden {golden[name]!r}")
    for name in ANALYTIC_COLUMNS:
        got, want = row[name], golden[name]
        if math.isnan(got) or math.isnan(want):
            if math.isnan(got) != math.isnan(want):
                problems.append(f"{name}={got!r}, golden {want!r}")
        elif abs(got - want) > ANALYTIC_RTOL * abs(want):
            problems.append(f"{name}={got!r}, golden {want!r} (rtol {ANALYTIC_RTOL})")
    return problems


def check_output(name: str, seed: int, csv_path: Path) -> dict[str, str]:
    """Map each bad SNR point of one CSV (and its manifest) to its problem.

    At the default seed the rows must match the golden file: the Monte
    Carlo columns exactly (they come from integer counts), the analytic
    columns to a relative 1e-9. At any seed the grid must match, values
    lie in [0, 1] with NaN only in ``abep_estimated``, and ``ci95`` is
    finite and nonnegative.
    """
    wl = WORKLOADS[name]
    grid = [format(float(s), "g") for s in wl.snr_db]
    try:
        header, rows = _parse_csv(csv_path.read_text())
        manifest = json.loads(
            csv_path.with_suffix(csv_path.suffix + ".manifest.json").read_text()
        )
    except (OSError, ValueError) as err:
        return dict.fromkeys(grid, f"unreadable output ({err})")
    if header != HEADER:
        return dict.fromkeys(grid, f"header {header!r}")
    if manifest.get("seed") != seed:
        return dict.fromkeys(grid, f"manifest seed {manifest.get('seed')!r}")
    golden = None
    if seed == DEFAULT_SEED:
        _, golden_rows = _parse_csv((GOLDEN / f"{name}.csv").read_text())
        golden = {format(r["snr_db"], "g"): r for r in golden_rows}
    by_snr = {format(r["snr_db"], "g"): r for r in rows}
    bad = {snr: "not on the grid" for snr in by_snr if snr not in grid}
    for snr in grid:
        if snr not in by_snr:
            bad[snr] = "missing"
            continue
        problems = _row_problems(by_snr[snr], golden[snr] if golden else None)
        if problems:
            bad[snr] = "; ".join(problems)
    return bad


def _checked(name: str, seed: int, record: dict, csv_path: Path) -> dict[str, str]:
    if record["rc"] != 0:
        grid = [format(float(s), "g") for s in WORKLOADS[name].snr_db]
        return dict.fromkeys(grid, f"rsmsim exited with {record['rc']}")
    return check_output(name, seed, csv_path)


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    wl = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "out.csv"
    setups = [
        _child(wl, seed, csv_path, "--setup-only") for _ in range(SETUP_CHILDREN)
    ]
    runs, problems, failed = [], [], 0
    start = time.perf_counter()
    while True:
        record = _child(wl, seed, csv_path)
        runs.append(record)
        bad = _checked(name, seed, record, csv_path)
        problems += [f"run {len(runs)}, {snr} dB: {why}" for snr, why in bad.items()]
        failed += min(len(bad), len(wl.snr_db))
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "env": _environment(setups[0]["env"]),
        "children": {"setup": len(setups), "workload": len(runs)},
        "attempted": len(runs) * len(wl.snr_db),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def trace(name: str, seed: int) -> dict:
    """Per-layer metrics from two traced runs, checked against an untraced one."""
    wl = WORKLOADS[name]
    n_points = len(wl.snr_db)
    out = OUT / f"{name}-seed{seed}-trace"
    out.mkdir(parents=True, exist_ok=True)
    env = _child(wl, seed, out / "setup.csv", "--setup-only")["env"]
    plain_csv = out / "untraced.csv"
    plain = _child(wl, seed, plain_csv, threads=1)
    bad = _checked(name, seed, plain, plain_csv)
    problems = [f"untraced run, {snr} dB: {why}" for snr, why in bad.items()]
    failed = min(len(bad), n_points)
    plain_bytes = plain_csv.read_bytes() if plain["rc"] == 0 else None
    traced = []
    for k in (1, 2):
        csv_path = out / f"traced{k}.csv"
        spans_path = out / f"spans{k}.json"
        record = _child(wl, seed, csv_path, "--trace-out", str(spans_path), threads=1)
        if record["rc"] != 0 or csv_path.read_bytes() != plain_bytes:
            problems.append(f"traced run {k}: exit {record['rc']} or CSV differs from untraced")
            failed += n_points
            continue
        payload = json.loads(spans_path.read_text())
        if payload["missing"]:
            problems.append(f"traced run {k}: wrap targets not found: {payload['missing']}")
        traced.append(summarize(payload, record["wall_s"]))
    metrics = {}
    derived = {}
    if len(traced) == 2:
        counts = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"counts differ between traced runs: {counts[0]} vs {counts[1]}")
        metrics = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
        derived = {
            "untraced_wall_s": plain["wall_s"],
            "sim_bits_per_s": metrics["simulate.words"] * wl.bits_per_word / plain["wall_s"],
            "analytic_points_per_s": metrics["analysis.abep.calls"] / plain["wall_s"],
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "threads": 1,
        "env": _environment(env),
        "attempted": 3 * n_points,
        "failed": failed,
        "problems": problems,
        "derived": derived,
        "metrics": {
            k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
            for k, v in metrics.items()
        },
    }


def _report(result: dict) -> dict:
    """Print the human-readable lines and return the contract summary."""
    name = result["workload"]
    print(f"[{name}] env: {json.dumps(result['env'], sort_keys=True)}")
    for key, metric in result["metrics"].items():
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in result.get("derived", {}).items():
        print(f"[{name}] {key} = {value:.6g}")
    for problem in result["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")
    record = OUT / f"{name}-seed{result['seed']}-trace{result['trace']}.json"
    record.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="rsmsim benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rsmsim" / "__init__.py").is_file():
        print(f"error: no rsmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            if args.trace:
                result = trace(name, args.seed)
            else:
                result = measure(name, args.seed, args.seconds)
            summaries[name] = _report(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = summaries[names[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{n}.{k}": m for n, s in summaries.items() for k, m in s["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
