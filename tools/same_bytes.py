"""Check that the working tree writes the same CSV bytes as a git revision.

    python3 tools/same_bytes.py <rev>

Exports ``<rev>`` and the working tree (tracked files and untracked ones
that ``.gitignore`` does not exclude) with ``git archive`` into a
temporary directory. On each tree it runs the 30 checked commands, each
at ``--seed 1``: ``rsmsim ber`` at ``--threads 1`` and ``--threads 2``
and ``rsmsim abep``, for every preset under ``presets/`` and every
config under ``bench/configs/``. The two trees run side by side, one
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
        runs = [(config, *command) for config in configs(head) for command in COMMANDS]
        if configs(base) != configs(head):
            print("the two trees hold different config files")
            return 1
        differ = 0
        with ThreadPoolExecutor(max_workers=2) as pool:
            for config, command, threads in runs:
                old, new = pool.map(lambda tree: run(tree, config, command, threads), (base, head))
                same = [old[2] == new[2], old[0] == new[0], old[1] == new[1]]
                differ += not all(same)
                label = f"{command} {config}" + ("" if threads is None else f" --threads {threads}")
                print(
                    f"{'same' if all(same) else 'DIFF'}: {label}: csv "
                    f"{'identical' if same[0] else 'differs'}, exit {old[0]} -> {new[0]}, "
                    f"stderr {'identical' if same[2] else 'differs'}"
                )
    seconds = time.perf_counter() - start
    print(
        f"same_bytes: {len(runs) - differ} of {len(runs)} runs identical to {args.rev} "
        f"(CSV bytes, exit code, stderr) in {seconds:.1f} s"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
