"""One benchmark measurement in a fresh interpreter.

Times the set-up (import ``rsmsim``, load the config, build the
constellation, run the channel calibration) and then one call of the
public CLI entry ``rsmsim.cli.main`` until the CSV and its manifest are
on disk. Prints one JSON object on stdout. With ``--trace-out`` the
layer wrappers of ``spans.py`` are installed between the two phases and
the spans are written to that file.

Only ``time.perf_counter`` and ``resource.getrusage`` are used to
measure.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", required=True, help="CSV path")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="write spans here")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    from rsmsim import cli
    from rsmsim.channel import in_sector_fraction
    from rsmsim.phy import build_constellation

    config = cli.load_config(args.config)
    build_constellation(config.constellation_kind, config.constellation_order, config.ring_ratio)
    in_sector_fraction(config.channel)
    record = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        record["env"] = _versions()
        print(json.dumps(record))
        return 0

    argv = ["ber", "--config", args.config, "--out", args.out]
    argv += ["--seed", str(args.seed), "--threads", str(args.threads)]
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    record.update(
        rc=rc,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
