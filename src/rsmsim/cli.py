"""Command-line interface: experiment subcommands and CSV emission.

Experiments are described by flat ``key = value`` config files (see the
README for the key reference). Every result file gets a JSON manifest
sidecar recording the config snapshot, tool version, numpy and scipy
versions, timestamp, and seed; for ``ber`` also the thread count and a
``points`` list that gives, per SNR point, the links left out of the
estimated ABEP (null for the baseline) and the words lost to degenerate
pilot estimates. CSV output is locale-independent and byte-stable for a
given seed, whatever the worker count.

Exit codes: 0 success (possibly with warnings), 2 configuration error
naming the offending key, or a threshold design asked for outside the
domain ``phy.check_design_domain`` accepts (by ``threshold``, or by an
SNR point at which every link's design is outside it), 3 runtime
simulation failure (among them one link's design outside the domain at
a point where other links' designs are inside).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import ChannelParams
from .mimo import SingularChannel
from .phy import (
    NoRoot,
    OutsideDesignDomain,
    check_design_domain,
    exact_threshold_residual,
    threshold,
)
from .simulate import (
    FdConfig,
    LinkOutsideDesignDomain,
    PointAborted,
    RsmConfig,
    analytic_curves,
    analytic_curves_fd,
    run,
    run_fd,
)
from .specfun import DomainError

__all__ = ["main", "ConfigError", "parse_config_text", "load_config"]

EXIT_CONFIG = 2
EXIT_RUNTIME = 3
#: most points an ``snr_db`` range may give
MAX_RANGE_POINTS = 10_000


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return format(value, ".10e")


# Key tables: name -> (target field, parser). Channel keys fill
# ChannelParams, the rest fill RsmConfig / FdConfig.
def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_snr_grid(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("ranges use start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("range bounds and step must be finite")
        if step <= 0 or stop < start:
            raise ValueError("ranges need step > 0 and stop >= start")
        grid, value = [], start
        while value <= stop + 1e-9:
            if len(grid) == MAX_RANGE_POINTS or value + step == value:
                raise ValueError(f"a range gives at most {MAX_RANGE_POINTS} points, each one step up")
            grid.append(round(value, 9))
            value += step
        return tuple(grid)
    return tuple(float(p) for p in raw.split(",") if p.strip())


_CHANNEL_KEYS = {
    "n_tx": ("n_tx", int),
    "n_rx": ("n_rx", int),
    "n_clusters": ("n_clusters", int),
    "n_rays": ("n_rays", int),
    "angular_spread_deg": ("angular_spread_deg", float),
    "sector_center_deg": ("sector_center_deg", float),
    "sector_width_deg": ("sector_width_deg", float),
    "rx_omni": ("rx_omni", _parse_bool),
    "antenna_spacing": ("antenna_spacing_wavelengths", float),
    "gain_variance": ("gain_variance", float),
}

_COMMON_KEYS = {
    "constellation": ("constellation_kind", str),
    "order": ("constellation_order", int),
    "ring_ratio": ("ring_ratio", float),
    "snr_db": ("snr_grid_db", _parse_snr_grid),
    "trials_per_point": ("trials_per_point", int),
    "channels_per_point": ("channels_per_point", int),
    "seed": ("seed", int),
}

_RSM_KEYS = {
    "n_active": ("n_active", int),
    "threshold_mode": ("threshold_mode", str),
    "threshold_source": ("threshold_source", str),
    "n_pilots": ("n_pilots", int),
    "selection": ("selection", str),
}

_FD_KEYS = {"n_modes": ("n_modes", int)}

_REQUIRED = {"rsm": ("n_tx", "n_rx", "n_active", "snr_db"), "fd_svd": ("n_tx", "n_rx", "snr_db")}


def parse_config_text(text: str) -> RsmConfig | FdConfig:
    """Parse the flat key = value experiment description."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}")
        pairs[key] = raw

    system = pairs.pop("system", "rsm").lower()
    if system not in _REQUIRED:
        raise ConfigError(f"key 'system' must be rsm or fd_svd, got {system!r}")
    for required in _REQUIRED[system]:
        if required not in pairs:
            raise ConfigError(f"missing required key {required!r}")

    tables: dict[str, tuple[str, object]] = {}
    tables.update(_CHANNEL_KEYS)
    tables.update(_COMMON_KEYS)
    tables.update(_RSM_KEYS if system == "rsm" else _FD_KEYS)

    channel_kwargs: dict[str, object] = {}
    config_kwargs: dict[str, object] = {}
    for key, raw in pairs.items():
        if key not in tables:
            raise ConfigError(f"unknown key {key!r}")
        field_name, parser = tables[key]
        try:
            value = parser(raw)
        except ValueError as err:
            raise ConfigError(f"key {key!r}: {err}") from err
        target = channel_kwargs if key in _CHANNEL_KEYS else config_kwargs
        target[field_name] = value

    try:
        channel = ChannelParams(**channel_kwargs)
        if system == "rsm":
            return RsmConfig(channel=channel, **config_kwargs)
        return FdConfig(channel=channel, **config_kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def load_config(path: str | Path) -> RsmConfig | FdConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text)


def _with_seed(config: RsmConfig | FdConfig, seed: int | None):
    if seed is None:
        return config
    try:
        return replace(config, seed=seed)
    except ValueError as err:
        raise ConfigError(f"--seed: {err}") from err


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_suffix(out_path.suffix + ".manifest.json")


def _check_out(out: str, *, manifest: bool) -> Path:
    """The ``--out`` path, once its directory is known to exist and neither
    it nor, with ``manifest``, its manifest sidecar is a directory, so that
    a run never ends, after all its work, unable to write its result."""
    path = Path(out)
    if not path.parent.is_dir():
        raise ConfigError(f"--out: directory {str(path.parent)!r} does not exist")
    for target in (path, _manifest_path(path)) if manifest else (path,):
        if target.is_dir():
            raise ConfigError(f"--out: {str(target)!r} is a directory")
    return path


def _write_manifest(out_path: Path, config, extra: dict) -> None:
    snapshot = asdict(config)
    manifest = {
        "tool": "rsmsim",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": config.seed,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "config": snapshot,
        **extra,
    }
    _manifest_path(out_path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_ber(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    out = _check_out(args.out, manifest=True)
    config = _with_seed(load_config(args.config), args.seed)
    if isinstance(config, RsmConfig):
        report = run(config, n_threads=args.threads)
    else:
        report = run_fd(config, n_threads=args.threads)
    lines = ["snr_db,ber_total,ber_spatial,ber_mod,abep_analytic,abep_estimated,ci95"]
    for p in report.points:
        lines.append(
            ",".join(
                [
                    format(p.snr_db, "g"),
                    _fmt(p.ber_total),
                    _fmt(p.ber_spatial),
                    _fmt(p.ber_modulation),
                    _fmt(p.abep_analytic),
                    _fmt(p.abep_analytic_estimated),
                    _fmt(p.ci_halfwidth_95),
                ]
            )
        )
    out.write_text("\n".join(lines) + "\n")
    points = [
        {"snr_db": p.snr_db, "excluded_links": p.excluded_links, "failed_words": p.failed_words}
        for p in report.points
    ]
    extra = {"output": str(out), "command": "ber", "threads": args.threads, "points": points}
    _write_manifest(out, config, extra)
    return 0


def cmd_abep(args: argparse.Namespace) -> int:
    out = _check_out(args.out, manifest=True)
    config = _with_seed(load_config(args.config), args.seed)
    if isinstance(config, RsmConfig):
        rows = analytic_curves(config)
    else:
        rows = analytic_curves_fd(config)
    lines = ["snr_db,abep_analytic,abep_estimated"]
    for snr_db, perfect, estimated in rows:
        lines.append(f"{snr_db:g},{_fmt(perfect)},{_fmt(estimated)}")
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(out, config, {"output": str(out), "command": "abep"})
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from .power import PowerConfig, power_fd, power_proposed, power_ratio

    out = _check_out(args.out, manifest=False) if args.out else None
    try:
        configs = [PowerConfig(args.p_ref, int(v)) for v in args.n_rx.split(",") if v.strip()]
        if not configs:
            raise ValueError("empty list")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    lines = ["n_rx,p_proposed_mw,p_fd_mw,ratio"]
    for cfg in configs:
        exact, _ = power_ratio(cfg)
        lines.append(f"{cfg.n_rx},{power_proposed(cfg):g},{power_fd(cfg):g},{exact:.4f}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    check_design_domain(args.alpha_p, args.sigma2, args.beta)
    min_power = args.beta * args.alpha_p
    print("mode,gamma,residual")
    for mode in ("exact", "msa", "hsa"):
        try:
            gamma = threshold(mode, args.alpha_p, args.sigma2, args.beta)
        except (NoRoot, DomainError) as err:
            print(f"{mode},unavailable,-  # warning: {err}")
            continue
        residual = exact_threshold_residual(gamma, min_power, args.sigma2)
        print(f"{mode},{gamma:.12e},{residual:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmsim",
        description="Link-level simulator and analysis for threshold-detected "
        "receive spatial modulation",
    )
    parser.add_argument("--version", action="version", version=f"rsmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="Monte Carlo BER sweep plus analytic curves")
    ber.add_argument("--config", required=True)
    ber.add_argument("--out", required=True)
    ber.add_argument("--seed", type=int, default=None, help="override config seed")
    ber.add_argument("--threads", type=int, default=1)
    ber.set_defaults(func=cmd_ber)

    abep = sub.add_parser("abep", help="analytic curves only (no sampling)")
    abep.add_argument("--config", required=True)
    abep.add_argument("--out", required=True)
    abep.add_argument("--seed", type=int, default=None)
    abep.set_defaults(func=cmd_abep)

    power = sub.add_parser("power", help="receiver power-consumption table")
    power.add_argument("--n-rx", required=True, help="comma-separated antenna counts")
    power.add_argument("--p-ref", type=float, required=True, help="reference power, mW")
    power.add_argument("--out", default=None)
    power.set_defaults(func=cmd_power)

    thr = sub.add_parser("threshold", help="print the three threshold designs")
    thr.add_argument("--alpha-p", type=float, required=True, dest="alpha_p")
    thr.add_argument("--sigma2", type=float, default=1.0)
    thr.add_argument("--beta", type=float, default=1.0)
    thr.set_defaults(func=cmd_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Only a level name resolves to a number; any other value means WARNING.
    level = logging.getLevelName(os.environ.get("RSM_SIM_LOG", "WARNING").upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OutsideDesignDomain as err:
        print(f"error: threshold design: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (PointAborted, LinkOutsideDesignDomain, SingularChannel, ArithmeticError) as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
