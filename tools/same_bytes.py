"""Check that the working tree writes the same CSV bytes as a git revision.

    python3 tools/same_bytes.py <rev>

Exports ``<rev>`` and the working tree (tracked files and untracked ones
that ``.gitignore`` does not exclude) with ``git archive`` into a
temporary directory. On each tree it runs three commands per config,
each at ``--seed 1``: ``rsmsim ber`` at ``--threads 1`` and ``--threads
2`` and ``rsmsim abep``. The configs are every preset under ``presets/``
and every config under ``bench/configs/`` (the 30 checked runs), and
then the small configs of :data:`SMALL`, written into both trees, which
reach the paths no preset reaches. The two trees run side by side, one
command of each at a time. Each command's CSV is compared byte for
byte, with its exit code and its stderr; one line per command gives the
three results, and the last line sums them up. Exits 1 on any
difference, 0 otherwise. The git index and the working tree are left
as they are; staging the working tree into a temporary index only adds
objects to the repository's object store.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "1"
COMMANDS = (("ber", "1"), ("ber", "2"), ("abep", None))


def small_configs() -> dict[str, str]:
    """Small fixed configs, by file name: the baseline with 2-, 8- and
    16-PSK, 16-APSK and 4- and 64-QAM at 1 to 3 modes, RSM with BPSK,
    64-QAM and 16-APSK at 1 to 8 active antennas, with both receive
    patterns, both selections and every threshold design and source, and
    RSM with 16-PSK and 64-QAM on 1 or 2 links longer than one batch
    budget, which run in pieces. Each writes a CSV at ``--seed 1``."""
    common = ["n_tx = 32", "n_rx = 10", "n_clusters = 12", "angular_spread_deg = 10"]
    kinds = {"psk": ["constellation = psk"], "qam": ["constellation = qam"]}
    kinds["apsk"] = ["constellation = apsk", "ring_ratio = 2.6"]
    configs = {}
    for kind, order in [("psk", 2), ("psk", 8), ("psk", 16), ("apsk", 16), ("qam", 4), ("qam", 64)]:
        for n_modes in (1, 2, 3):
            configs[f"fd_{kind}{order}_modes{n_modes}"] = [
                "system = fd_svd", f"n_modes = {n_modes}", *kinds[kind], f"order = {order}",
                "snr_db = -30,-20,-10,0", "trials_per_point = 2000", "channels_per_point = 12",
            ]
    rsm = [
        (1, "psk", 2, "exact", "perfect", "exhaustive", "true"),
        (2, "qam", 64, "msa", "estimated", "all_antennas", "false"),
        (3, "apsk", 16, "hsa", "perfect", "exhaustive", "false"),
        (4, "psk", 2, "exact", "estimated", "all_antennas", "true"),
        (5, "qam", 64, "msa", "perfect", "exhaustive", "false"),
        (6, "apsk", 16, "hsa", "estimated", "all_antennas", "true"),
        (7, "psk", 2, "msa", "estimated", "exhaustive", "false"),
        (8, "qam", 64, "exact", "perfect", "exhaustive", "false"),
    ]
    for n_active, kind, order, mode, source, selection, omni in rsm:
        configs[f"rsm_{kind}{order}_active{n_active}"] = [
            "system = rsm", f"n_active = {n_active}", *kinds[kind], f"order = {order}",
            f"threshold_mode = {mode}", f"threshold_source = {source}", "n_pilots = 8",
            f"selection = {selection}", f"rx_omni = {omni}",
            # Below 10 dB degenerate pilot estimates abort these runs (exit 3).
            f"snr_db = {'10,20' if source == 'estimated' else '-10,0,10'}",
            "trials_per_point = 300", "channels_per_point = 12",
        ]
    # Words per link above the batch budget of _BATCH_SYMBOLS = 65,536
    # antenna-words, and not a multiple of the pieces: 2 and 3 pieces.
    long_links = [
        (4, "psk", 16, "hsa", "perfect", 16_385, 2),
        (2, "qam", 64, "msa", "estimated", 65_537, 1),
    ]
    for n_active, kind, order, mode, source, trials, links in long_links:
        configs[f"rsm_{kind}{order}_long_{source}"] = [
            "system = rsm", f"n_active = {n_active}", *kinds[kind], f"order = {order}",
            f"threshold_mode = {mode}", f"threshold_source = {source}", "n_pilots = 8",
            f"snr_db = {'10' if source == 'estimated' else '0'}",
            f"trials_per_point = {trials}", f"channels_per_point = {links}",
        ]
    return {
        f"same_bytes_configs/{name}.cfg": "\n".join([*lines, *common]) + "\n"
        for name, lines in configs.items()
    }


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree(scratch: Path) -> str:
    """The tree object of the working tree, staged into a temporary index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(treeish: str, target: Path) -> None:
    target.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", treeish], cwd=ROOT, check=True, capture_output=True
    ).stdout
    path = target.parent / f"{target.name}.tar"
    path.write_bytes(archive)
    with tarfile.open(path) as tar:
        tar.extractall(target, filter="data")


def configs(tree: Path) -> list[str]:
    return sorted(
        str(path.relative_to(tree))
        for folder in ("presets", "bench/configs")
        for path in (tree / folder).glob("*.cfg")
    )


def run(tree: Path, config: str, command: str, threads: str | None) -> tuple[int, bytes, bytes]:
    """(exit code, stderr, CSV bytes) of one command run in ``tree``."""
    name = Path(config).stem + ("" if threads is None else f"_t{threads}")
    out = tree / "same_bytes_out" / f"{command}_{name}.csv"
    out.parent.mkdir(exist_ok=True)
    argv = [sys.executable, "-m", "rsmsim.cli", command, "--config", config, "--out", str(out)]
    argv += ["--seed", SEED] + ([] if threads is None else ["--threads", threads])
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("RSM_SIM_LOG", None)
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True)
    return done.returncode, done.stderr, out.read_bytes() if out.exists() else b""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, e.g. HEAD")
    args = parser.parse_args()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        scratch = Path(tmp)
        base, head = scratch / "rev", scratch / "tree"
        export(args.rev, base)
        export(working_tree(scratch), head)
        if configs(base) != configs(head):
            print("the two trees hold different config files")
            return 1
        small = small_configs()
        for tree in (base, head):
            (tree / "same_bytes_configs").mkdir()
            for name, text in small.items():
                (tree / name).write_text(text)
        runs = [
            (config, *command) for config in [*configs(head), *small] for command in COMMANDS
        ]
        differ = {True: 0, False: 0}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for config, command, threads in runs:
                old, new = pool.map(lambda tree: run(tree, config, command, threads), (base, head))
                same = [old[2] == new[2], old[0] == new[0], old[1] == new[1]]
                differ[config in small] += not all(same)
                label = f"{command} {config}" + ("" if threads is None else f" --threads {threads}")
                print(
                    f"{'same' if all(same) else 'DIFF'}: {label}: csv "
                    f"{'identical' if same[0] else 'differs'}, exit {old[0]} -> {new[0]}, "
                    f"stderr {'identical' if same[2] else 'differs'}"
                )
    seconds = time.perf_counter() - start
    n_small = len(small) * len(COMMANDS)
    n_checked = len(runs) - n_small
    print(
        f"same_bytes: {n_checked - differ[False]} of {n_checked} checked runs and "
        f"{n_small - differ[True]} of {n_small} small-config runs identical to {args.rev} "
        f"(CSV bytes, exit code, stderr) in {seconds:.1f} s"
    )
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
