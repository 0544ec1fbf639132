"""Command line front end.

Subcommands:
  theory            critical exponents only, from a config
  sample            draw and export attractor points
  estimate          dimension spectrum from a sample file
  compare           full theory-vs-empirical pipeline with a report
  check-separation  separation certificate, for all depths where the scheme allows
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .codespace import MAX_DEPTH
from .empirical import _stream_spectrum, write_fit_csv, write_spectrum_csv
from .errors import (
    BranchBudgetError,
    ConfigError,
    DepthCapError,
    IncompleteSchemeError,
    IndeterminateTrendError,
    InsufficientScalesError,
    SampleError,
)
from .harness import (
    ExperimentConfig,
    _config_object,
    _exponents_by_q,
    _q_grid,
    _scale_sizes,
    build_scheme,
    build_system,
    build_system_and_measure,
    emit_report,
    realize_scheme,
    run_experiment,
)
from .systems import _read_csv_blocks, _sample_stream, _write_csv_blocks, check_separation
from .theory import clamp_dimension


def _parse_q_list(text: str) -> tuple[float, ...]:
    """The numbers of ``--q``, not yet judged: ``harness._q_grid`` holds the rule."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--q must be comma-separated numbers, got {text!r}") from None


def _parse_scales(text: str) -> tuple[float, ...]:
    """Dyadic sizes from ``MIN:MAX`` exponents, or a comma list of sizes.

    An empty exponent range gives an empty tuple, which the estimator rejects.
    """
    try:
        if ":" in text:
            lo, hi = text.split(":")
            scales = tuple(2.0**-e for e in range(int(lo), int(hi) + 1))
        else:
            scales = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except (OverflowError, ValueError):
        raise ConfigError(f"--scales must be MIN:MAX or comma-separated sizes, "
                          f"got {text!r}") from None
    return _scale_sizes("--scales", scales)


def _load_config(args) -> ExperimentConfig:
    raw = _config_object(args.config)
    # an option replaces its file field before the one from_dict judges them all
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "q", None):
        raw["q"] = list(_parse_q_list(args.q))
    if getattr(args, "tolerance", None) is not None:
        raw["tolerance"] = args.tolerance
    return ExperimentConfig.from_dict(raw)


def _cmd_theory(args) -> int:
    config = _load_config(args)
    system, measure = build_system_and_measure(config)
    theory = _exponents_by_q(system, measure, config.q_values)
    lines = ["q,d_theory,method,bracket_lo,bracket_hi,clamped"]
    for q in config.q_values:
        ce = theory[q]
        clamped = ce.value > system.ambient_dim
        note = (f" (clamped to {clamp_dimension(ce.value, system.ambient_dim):.6f})"
                if clamped else "")
        print(f"q={q:g}: d={ce.value:.6f}{note} [{ce.method}]")
        lines.append(",".join([repr(float(q)), repr(ce.value), ce.method,
                               repr(ce.lower), repr(ce.upper),
                               "true" if clamped else "false"]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "theory.csv")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_sample(args) -> int:
    config = _load_config(args)
    system, measure = build_system_and_measure(config)
    scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
    meta, blocks = _sample_stream(system, scheme, measure, count=config.samples,
                                  depth=config.depth, seed=config.seed,
                                  target_resolution=min(config.scales))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "points.csv")
    # rows are written as they are drawn: a failed draw leaves no file, a failed open no change
    fh = open(path, "w", newline="")
    try:
        with fh:
            _write_csv_blocks(fh, blocks)
    except BaseException:
        os.remove(path)
        raise
    print(f"wrote {meta['count']} points to {path} "
          f"(depth={meta['depth']}, truncation={meta['truncation_bound']:.3g})")
    return 0


def _cmd_estimate(args) -> int:
    q_values = _q_grid(_parse_q_list(args.q)) if args.q else (0.5, 1.0, 2.0, 3.0)
    scales = _parse_scales(args.scales) if args.scales is not None else None
    all_records = []
    fits = []
    # the file is binned block by block as it is read, and the spectrum comes
    # back only once the last block has passed its checks, so a bad file
    # prints and writes nothing
    for records, est in _stream_spectrum(_read_csv_blocks(args.sample), q_values, scales):
        all_records.extend(records)
        fits.append(est)
        print(f"q={est.q:g}: D={est.dimension:.4f} +- {est.stderr:.4f} "
              f"({est.n_scales} scales in [{est.r_fine:g}, {est.r_coarse:g}])")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        spec_path = os.path.join(args.out, "spectrum.csv")
        fit_path = os.path.join(args.out, "fits.csv")
        write_spectrum_csv(all_records, spec_path)
        write_fit_csv(fits, fit_path)
        print(f"wrote {spec_path} and {fit_path}")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    for row in report.rows:
        verdict = "pass" if row.passed else "FAIL"
        print(f"q={row.q:g}: theory={row.d_theory:.4f} empirical={row.d_empirical:.4f} "
              f"+- {row.fit_err:.4f} [{row.method}] {verdict}")
    paths = emit_report(report, args.out)
    print(f"wrote {paths['csv']} and {paths['text']}")
    return 0


def _cmd_check_separation(args) -> int:
    config = _load_config(args)
    system = build_system(config)
    if not 1 <= args.depth <= MAX_DEPTH:
        raise ConfigError(f"--depth must lie in 1..{MAX_DEPTH}, got {args.depth}")
    scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
    report = check_separation(system, scheme, depth=args.depth, kind=args.kind)
    print(f"kind={report.kind} depth={report.depth} "
          f"holds_at_depth={str(report.holds_at_depth).lower()} "
          f"all_depths={str(report.all_depths).lower()} "
          f"worst_gap_ratio={report.worst_gap_ratio:.6g} witness={report.witness}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``qdims`` parser, built on a process's first ``main`` call and kept:
    a build takes about 1 ms, a fifth of an in-process Cantor ``compare``."""
    parser = argparse.ArgumentParser(
        prog="qdims",
        description="Generalized q-dimensions of level-varying contraction systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_command(name, help, func, options, out_default=None):
        # only the options that func reads; _load_config applies those it finds
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if "q" in options:
            p.add_argument("--q", default=None, help="comma-separated q list override")
        if "tolerance" in options:
            p.add_argument("--tolerance", type=float, default=None,
                           help="override the pass/fail tolerance")
        if "out" in options:
            p.add_argument("--out", default=out_default, help="output directory")
        p.set_defaults(func=func)
        return p

    config_command("theory", "compute critical exponents only", _cmd_theory, ("q", "out"))
    config_command("sample", "draw and export attractor points", _cmd_sample,
                   ("seed", "out"), out_default="out")

    p_est = sub.add_parser("estimate", help="dimension spectrum from a sample CSV")
    p_est.add_argument("sample", help="headerless CSV of x_1,...,x_d,weight rows")
    p_est.add_argument("--q", default=None, help="comma-separated q list")
    p_est.add_argument("--scales", default=None,
                       help="either MIN:MAX dyadic exponents (e.g. 4:12) or comma floats")
    p_est.add_argument("--out", default=None, help="output directory")
    p_est.set_defaults(func=_cmd_estimate)

    config_command("compare", "full theory-vs-empirical pipeline", _cmd_compare,
                   ("seed", "q", "tolerance", "out"), out_default="out")
    p_sep = config_command("check-separation", "separation certificate",
                           _cmd_check_separation, ("seed",))
    p_sep.add_argument("--depth", type=int, default=5,
                       help="levels 1..N judged by the word-tree walk, for schemes whose "
                            "offsets depend on more than the level and letter; its verdict "
                            "covers those levels only, and others are certified for all "
                            "depths")
    p_sep.add_argument("--kind", choices=["ssc", "osc"], default="ssc")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BranchBudgetError, DepthCapError, IncompleteSchemeError,
            IndeterminateTrendError, InsufficientScalesError, SampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
