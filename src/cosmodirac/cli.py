"""Command-line entry point.

Subcommands::

    simulate run    CONFIG | --preset NAME   execute a run
    simulate plots  MANIFEST                 emit plot scripts for a run
    simulate check  CONFIG | --preset NAME   validate only

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure during a run.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, load_config
from .gaussian import (
    ConvergenceError,
    DegenerateGroundStateError,
    StepSizeError,
)
from .entanglement import InvalidStateError
from .lattice import DomainError
from .quasiparticle import NonEquilibratedWindowError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

NUMERICAL_ERRORS = (
    ConvergenceError,
    DegenerateGroundStateError,
    StepSizeError,
    InvalidStateError,
    NonEquilibratedWindowError,
    FloatingPointError,
    DomainError,
)


def preset_names() -> list:
    files = resources.files("cosmodirac.presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".yaml"))


def preset_text(name: str) -> str:
    path = resources.files("cosmodirac.presets") / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(
            "--preset", f"unknown preset {name!r}; available: {preset_names()}"
        )
    return path.read_text()


def _load(args) -> tuple:
    """Resolve (config, label) from positional CONFIG or --preset."""
    if args.preset and args.config:
        raise ConfigError("<args>", "give either a config file or --preset, not both")
    if args.preset:
        return load_config(preset_text(args.preset)), f"preset:{args.preset}"
    if not args.config:
        raise ConfigError("<args>", "a config file or --preset is required")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError("<args>", f"config file not found: {path}")
    if path.is_dir():
        raise ConfigError("<args>", f"config file is a directory: {path}")
    return load_config(path), str(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Expanding-lattice Dirac-fermion simulation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("config", nargs="?", help="YAML config file")
    run_p.add_argument("--preset", help="name of a shipped figure preset")
    run_p.add_argument("--output", help="output directory (overrides config)")

    plots_p = sub.add_parser("plots", help="emit plot scripts for a finished run")
    plots_p.add_argument("manifest", help="manifest.json of a finished run")

    check_p = sub.add_parser("check", help="validate a config without running")
    check_p.add_argument("config", nargs="?", help="YAML config file")
    check_p.add_argument("--preset", help="name of a shipped figure preset")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            config, label = _load(args)
            print(f"{label}: valid "
                  f"({len(config.analyses)} analyses, "
                  f"N_S={config.lattice.num_sites})")
            return EXIT_OK
        if args.command == "run":
            from .pipeline import run as run_pipeline

            config, label = _load(args)
            manifest = run_pipeline(config, output_dir=args.output)
            print(f"{label}: wrote {len(manifest.files)} files to "
                  f"{manifest.directory} in {manifest.wall_time:.1f}s")
            return EXIT_OK
        if args.command == "plots":
            from .pipeline import RunManifest, make_plots

            path = Path(args.manifest)
            if not path.is_file():
                raise ConfigError("<args>", f"manifest not found: {path}")
            try:
                manifest = RunManifest.load(path)
            except (ValueError, TypeError) as exc:  # not JSON, or not a JSON object
                raise ConfigError("<args>", f"manifest {path} is not a JSON object: "
                                            f"{exc}") from exc
            except KeyError as exc:
                raise ConfigError("<args>", f"manifest {path} has no field {exc}") from exc
            scripts = make_plots(manifest)
            for script in scripts:
                print(script)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
