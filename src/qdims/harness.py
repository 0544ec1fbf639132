"""Experiment driver: configs in, comparison reports out.

A config names a system, a translation scheme, a measure, a q grid, and the
sampling/scale parameters. Running it computes the theoretical exponent per
q, certifies the separation condition per realization, samples the projected
measure, fits empirical dimensions, and assembles per-row pass/fail against
the clamped theoretical value. Randomized translation schemes get several
independent realizations because the backing statements hold almost surely;
each realization is judged on its own, never aggregated.

Identical configs (seed included) produce byte-identical report files.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import dataclass, field

from .codespace import BernoulliMeasure
from .empirical import _stream_spectrum, default_scales
from .errors import BranchBudgetError, ConfigError
from .systems import (
    AffineSystem,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    _sample_stream,
    check_separation,
)
from .theory import (
    Q_ONE_TOL,
    CriticalExponents,
    _release_level_spectra,
    affine_series_dimension,
    clamp_dimension,
    product_dimension,
)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ComparisonReport",
    "build_system",
    "build_scheme",
    "build_measure",
    "build_system_and_measure",
    "theoretical_exponents",
    "run_experiment",
    "emit_report",
    "render_report_csv",
    "render_report_text",
    "parse_report_csv",
    "REPORT_HEADER",
]

REPORT_HEADER = ("q", "d_theory", "method", "bracket_lo", "bracket_hi",
                 "clamped", "D_empirical", "fit_err", "pass")

DEFAULT_TOLERANCE_SIMILAR = 0.05
DEFAULT_TOLERANCE_AFFINE = 0.1
REALIZATION_SEED_STRIDE = 1_000_003


def _integer(name: str, value) -> int:
    """``value`` as an int; ``ConfigError`` naming ``name`` unless it is integral.

    Integral floats such as ``1e6`` are accepted; booleans are not.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _number(name: str, value) -> float:
    """``value`` as a float; ``ConfigError`` naming ``name`` unless it is a number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _list(name: str, value, optional: bool = False):
    """``value`` if it is a list (or None, when ``optional``); else ``ConfigError``."""
    if isinstance(value, (list, tuple)) or (optional and value is None):
        return value
    raise ConfigError(f"{name} must be a list, got {value!r}")


def _object(name: str, value) -> dict:
    """A copy of ``value`` if it is a JSON object; else ``ConfigError``."""
    if isinstance(value, dict):
        return dict(value)
    raise ConfigError(f"{name} must be an object, got {value!r}")


def _required(name: str, section: dict, key: str):
    """``section[key]``; ``ConfigError`` naming the key when the section lacks it."""
    try:
        return section[key]
    except KeyError:
        raise ConfigError(f"{name} is missing required key {key!r}") from None


def _scale_sizes(name: str, sizes) -> tuple[float, ...]:
    """``sizes`` as a tuple; ``ConfigError`` naming ``name`` unless all are finite and positive.

    The config's ``scales`` and the ``--scales`` option of ``qdims estimate`` share this check.
    """
    bad = [r for r in sizes if not 0.0 < r < math.inf]
    if bad:
        raise ConfigError(f"{name} must be finite positive sizes, got {bad[0]!r}")
    return tuple(sizes)


@contextlib.contextmanager
def _config_errors():
    """Raise a constructor's ``ValueError`` as ``ConfigError`` with its message."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    system: dict
    translations: dict
    measure: dict
    q_values: tuple[float, ...]
    scales: tuple[float, ...]
    samples: int = 100_000
    depth: int | None = None
    seed: int = 0
    realizations: int = 1
    tolerance: float | None = None
    schema_version: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _object("config", raw)
        try:
            version = _integer("schema_version", raw.get("schema_version", 1))
            if version != 1:
                raise ConfigError(f"unsupported schema_version {version}")
            scales = raw.get("scales")
            if scales is None:
                scales_t = default_scales()
            elif isinstance(scales, dict):
                base = _number("scales.base", scales.get("base", 2))
                lo = _integer("min_exp", scales["min_exp"])
                hi = _integer("max_exp", scales["max_exp"])
                if not 0.0 < base < math.inf:
                    raise ConfigError(f"scales.base must be finite and positive, got {base!r}")
                try:
                    scales_t = tuple(base**-e for e in range(lo, hi + 1))
                except OverflowError:
                    raise ConfigError(f"scales.base {base!r} to the powers -{lo}..-{hi} "
                                      f"overflows") from None
            else:
                scales_t = tuple(_number(f"scales[{i}]", s)
                                 for i, s in enumerate(_list("scales", scales)))
            if not scales_t:
                raise ConfigError("scales must be a non-empty list of positive sizes")
            scales_t = _scale_sizes("scales", scales_t)
            q_values = tuple(_number(f"q[{i}]", q) for i, q in enumerate(_list("q", raw["q"])))
            if not q_values or not all(0 < q < float("inf") for q in q_values):
                raise ConfigError("q grid must be a non-empty list of positive finite entries")
            samples = _integer("samples", raw.get("samples", 100_000))
            realizations = _integer("realizations", raw.get("realizations", 1))
            if samples < 1 or realizations < 1:
                raise ConfigError("samples and realizations must be at least 1")
            depth = None if raw.get("depth") is None else _integer("depth", raw["depth"])
            if depth is not None and depth < 1:
                raise ConfigError(f"sampling depth must be at least 1, got {depth}")
            seed = _integer("seed", raw.get("seed", 0))
            if seed < 0:
                raise ConfigError(f"seed must be non-negative, got {seed}")
            tolerance = (None if raw.get("tolerance") is None
                         else _number("tolerance", raw["tolerance"]))
            if tolerance is not None and not 0.0 <= tolerance < float("inf"):
                raise ConfigError(f"tolerance must be finite and non-negative, got {tolerance}")
            return cls(
                system=_object("system", raw["system"]),
                translations=_object("translations", raw["translations"]),
                measure=_object("measure", raw["measure"]),
                q_values=q_values,
                scales=scales_t,
                samples=samples,
                depth=depth,
                seed=seed,
                realizations=realizations,
                tolerance=tolerance,
                schema_version=version,
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "system": self.system,
            "translations": self.translations,
            "measure": self.measure,
            "q": list(self.q_values),
            "scales": list(self.scales),
            "samples": self.samples,
            "depth": self.depth,
            "seed": self.seed,
            "realizations": self.realizations,
            "tolerance": self.tolerance,
        }


@_config_errors()
def build_system(config: ExperimentConfig):
    section = config.system
    kind = section.get("kind")
    if kind == "similar":
        return SimilarSystem(
            ratios=_list("system.ratios", _required("system", section, "ratios")),
            tail=_list("system.tail", section.get("tail"), optional=True),
            ambient_dim=_integer("system.dim", section.get("dim", 1)),
            rotations=_list("system.rotations", section.get("rotations"), optional=True),
            rotations_tail=_list("system.rotations_tail", section.get("rotations_tail"),
                                 optional=True),
        )
    if kind == "affine":
        matrices = _required("system", section, "matrices")
        return AffineSystem(matrices=_list("system.matrices", matrices),
                            tail=_list("system.tail", section.get("tail"), optional=True))
    raise ConfigError(f"unknown system kind {kind!r}")


@_config_errors()
def build_measure(config: ExperimentConfig) -> BernoulliMeasure:
    section = config.measure
    return BernoulliMeasure(_list("measure.p", _required("measure", section, "p")),
                            tail=_list("measure.tail", section.get("tail"), optional=True))


def build_system_and_measure(config: ExperimentConfig):
    """``(system, measure)``; ``ConfigError`` unless their branching agrees."""
    system, measure = build_system(config), build_measure(config)
    if not measure.profile.matches(system.profile):
        raise ConfigError("measure branching does not match the system")
    return system, measure


def _parse_prefix_key(key: str) -> tuple[int, ...]:
    if not key.strip():
        return ()
    try:
        return tuple(int(tok) for tok in key.split(","))
    except ValueError:
        raise ConfigError(f"prefix key {key!r} must be comma-separated integers") from None


@_config_errors()
def build_scheme(config: ExperimentConfig, system):
    section = config.translations
    kind = section.get("kind")
    d = system.ambient_dim
    if kind == "explicit":
        table = _object("translations.table", _required("translations", section, "table"))
        table = {_parse_prefix_key(k): v for k, v in table.items()}
        scheme = ExplicitTranslations(table=table)
        dims = {len(v) for v in scheme.table.values()}
        if dims and dims != {d}:
            raise ConfigError(f"explicit translations must have dimension {d}")
        return scheme
    if kind == "random-box":
        seed = _integer("translations.seed", section.get("seed", config.seed))
        scheme = RandomBoxTranslations(low=_required("translations", section, "low"),
                                       high=_required("translations", section, "high"),
                                       seed=seed)
        if scheme.dim != d:
            raise ConfigError(f"random box must have dimension {d}")
        return scheme
    if kind == "finite-set":
        assignment = section.get("assignment")
        if assignment is not None:
            assignment = {_parse_prefix_key(k): _integer(f"assignment[{k!r}]", v)
                          for k, v in _object("translations.assignment", assignment).items()}
        scheme = FiniteTranslationSet(
            vectors=_required("translations", section, "vectors"),
            assignment=assignment,
            jitter_radius=_number("translations.jitter_radius",
                                  section.get("jitter_radius", 0.0)),
        )
        if scheme.dim != d:
            raise ConfigError(f"translation vectors must have dimension {d}")
        return scheme
    raise ConfigError(f"unknown translation kind {kind!r}")


def realize_scheme(scheme, base_seed: int, realization: int):
    """Concrete scheme for one realization; deterministic in its index."""
    return scheme.realize(base_seed + REALIZATION_SEED_STRIDE * (realization + 1))


@_config_errors()
def theoretical_exponents(system, measure: BernoulliMeasure, q: float) -> CriticalExponents:
    """The exact period root for a similarity table, the affine level sums otherwise."""
    solve = product_dimension if system.kind == "similar" else affine_series_dimension
    return solve(system, measure, q)


def _exponents_by_q(system, measure: BernoulliMeasure, q_values) -> dict:
    """``theoretical_exponents`` of each q in ``q_values``, keyed by q.

    The q of an affine table share one build of its level spectra, which is
    freed once the loop ends, also when a solve raises. Spectra that an
    earlier solve kept are freed before the loop: they belong to other
    objects, and would only add to the loop's memory.
    """
    _release_level_spectra()
    try:
        return {q: theoretical_exponents(system, measure, q) for q in q_values}
    finally:
        _release_level_spectra()


# randomized translation kind -> (claim, largest supported q, operator-norm limit)
_RANDOM_CLAIMS = {
    "random-box": ("as-equality:random-translations", float("inf"), float("inf")),
    "finite-set": ("as-equality:finite-translations", 2.0, 0.5),
}


def claim_for(system, scheme, q: float, ssc_holds: bool) -> str:
    """Label which kind of statement backs the theory/empirical comparison.

    A similarity system with a strong-separation certificate gets a plain
    equality claim; randomized translations get an almost-sure equality claim
    in their supported q range (finite translation sets additionally need
    every operator norm below one half); anything else only supports the
    upper-bound direction.
    """
    if system.kind == "similar" and ssc_holds:
        return "equality:similar+ssc"
    if not scheme.randomized:
        return "upper-bound"
    claim, q_max, norm_limit = _RANDOM_CLAIMS[scheme.kind]
    q_ok = (1.0 + Q_ONE_TOL < q <= q_max) or (
        abs(q - 1.0) <= Q_ONE_TOL and system.stationary
    )
    if q_ok and system.contraction_bound < norm_limit:
        return claim
    return "upper-bound"


@dataclass(frozen=True)
class ReportRow:
    q: float
    d_theory: float
    method: str
    bracket_lo: float
    bracket_hi: float
    clamped: bool
    d_empirical: float
    fit_err: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ReportRow, ...]
    meta: dict = field(default_factory=dict)


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Full pipeline: theory, separation certificates, sampling, fits, verdicts."""
    system, measure = build_system_and_measure(config)
    base_scheme = build_scheme(config, system)

    theory = _exponents_by_q(system, measure, config.q_values)

    n_real = config.realizations if base_scheme.randomized else 1
    # certify as deep as a tree of at most 4096 words reaches, and at least one level
    sep_depth = max(system.profile.depth_within(4096), 1)
    resolution = min(config.scales)

    default_tol = (DEFAULT_TOLERANCE_SIMILAR
                   if system.kind == "similar" and not base_scheme.randomized
                   else DEFAULT_TOLERANCE_AFFINE)
    tolerance = config.tolerance if config.tolerance is not None else default_tol

    separations = []
    estimates: list[dict[float, tuple]] = []
    for i in range(n_real):
        scheme = realize_scheme(base_scheme, config.seed, i)
        try:
            sep = check_separation(system, scheme, depth=sep_depth, kind="ssc")
            separations.append({
                "realization": i,
                "holds_at_depth": sep.holds_at_depth,
                "worst_gap_ratio": sep.worst_gap_ratio,
                "depth": sep.depth,
                "all_depths": sep.all_depths,
            })
            ssc_holds = sep.holds_at_depth
        except BranchBudgetError:
            separations.append({"realization": i, "holds_at_depth": None})
            ssc_holds = False
        # each block of the sample is binned as it is drawn, so the whole
        # point cloud never exists at once
        sampling, blocks = _sample_stream(system, scheme, measure, count=config.samples,
                                          depth=config.depth, seed=config.seed + i,
                                          target_resolution=resolution)
        if i == 0:
            resolved_depth = sampling["depth"]
            truncation_bound = sampling["truncation_bound"]
        spectrum = _stream_spectrum(blocks, config.q_values, config.scales)
        # the claim depends on the scheme family (randomized or not),
        # while the separation certificate is per realization
        estimates.append({q: (est, claim_for(system, base_scheme, q, ssc_holds))
                          for q, (_, est) in zip(config.q_values, spectrum)})

    rows = []
    for q in config.q_values:
        ce = theory[q]
        clamp = clamp_dimension(ce.value, system.ambient_dim)
        for i in range(n_real):
            est, claim = estimates[i][q]
            if claim.startswith("equality") or claim.startswith("as-equality"):
                passed = abs(est.dimension - clamp) <= tolerance
            else:
                passed = est.dimension <= clamp + tolerance
            rows.append(ReportRow(
                q=float(q),
                d_theory=float(ce.value),
                method=f"{ce.method}[{claim}]",
                bracket_lo=float(ce.lower),
                bracket_hi=float(ce.upper),
                clamped=ce.value > system.ambient_dim,
                d_empirical=float(est.dimension),
                fit_err=float(est.stderr),
                passed=bool(passed),
            ))

    meta = {
        "tool": "qdims",
        "system_kind": system.kind,
        "ambient_dim": system.ambient_dim,
        "stationary": bool(system.stationary and measure.stationary),
        "seed": config.seed,
        "samples": config.samples,
        "depth": config.depth,
        "sampling_depth": resolved_depth,
        "truncation_bound": truncation_bound,
        "realizations": n_real,
        "tolerance": tolerance,
        "scales": list(config.scales),
        "q": list(config.q_values),
        "separation": separations,
        "translation_kind": base_scheme.kind,
    }
    if base_scheme.kind == "finite-set":
        meta["operator_norm_bound"] = float(system.contraction_bound)
        meta["norm_below_half"] = bool(system.contraction_bound < 0.5)
    return ComparisonReport(rows=tuple(rows), meta=meta)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_report_csv(report: ComparisonReport) -> str:
    lines = [",".join(REPORT_HEADER)]
    for row in report.rows:
        lines.append(",".join([
            _fmt(row.q), _fmt(row.d_theory), row.method, _fmt(row.bracket_lo),
            _fmt(row.bracket_hi), _fmt(row.clamped), _fmt(row.d_empirical),
            _fmt(row.fit_err), _fmt(row.passed),
        ]))
    return "\n".join(lines) + "\n"


def parse_report_csv(path) -> tuple[ReportRow, ...]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = tuple(lines[0].split(","))
    if header != REPORT_HEADER:
        raise ValueError(f"unexpected report header {header}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(ReportRow(
            q=float(parts[0]), d_theory=float(parts[1]), method=parts[2],
            bracket_lo=float(parts[3]), bracket_hi=float(parts[4]),
            clamped=parts[5] == "true", d_empirical=float(parts[6]),
            fit_err=float(parts[7]), passed=parts[8] == "true",
        ))
    return tuple(rows)


def render_report_text(report: ComparisonReport) -> str:
    out = ["comparison report", "=" * 17, ""]
    for key in sorted(report.meta):
        out.append(f"{key}: {json.dumps(report.meta[key], sort_keys=True)}")
    out.append("")
    out.append(f"{'q':>6} {'theory':>10} {'clamped':>8} {'empirical':>10} "
               f"{'fit_err':>8} {'pass':>5}  method")
    for row in report.rows:
        out.append(
            f"{row.q:>6.3g} {row.d_theory:>10.6f} {str(row.clamped).lower():>8} "
            f"{row.d_empirical:>10.6f} {row.fit_err:>8.4f} "
            f"{str(row.passed).lower():>5}  {row.method}"
        )
    out.append("")
    return "\n".join(out)


def emit_report(report: ComparisonReport, out_dir, stem: str = "report") -> dict:
    """Write the CSV and text renderings; byte output is deterministic."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(render_report_csv(report))
    paths["csv"] = csv_path
    txt_path = os.path.join(out_dir, f"{stem}.txt")
    with open(txt_path, "w", newline="") as fh:
        fh.write(render_report_text(report))
    paths["text"] = txt_path
    return paths
