"""The three benchmark workloads: inputs from a seed, one pipeline pass, checks.

Each workload reaches qdims only through its public API and its CLI. The
program receives the generated config and nothing else; the seed goes into
the config's ``seed`` and every realization seed derives from it inside
``qdims.harness``. A pass returns the outputs that ``check`` judges; checks
run outside the timed region and yield one ``(label, ok)`` per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import qdims
import qdims.cli
import qdims.harness
import qdims.singular
import qdims.theory

# the solver's own truncated-bisection tolerance (qdims.theory.XTOL_TRUNCATED
# when the references were recorded); pinned here so the check cannot loosen
XTOL_TRUNCATED = 1e-3
WARM_POINTS = 512
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return qdims.cli.main(argv)


def _write_json(path, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
    return path


def _repo_config(root, name: str) -> dict:
    with open(os.path.join(root, "configs", name)) as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = int(seed)
        self.out = os.path.join(workdir, "out")

    def setup(self) -> None:
        """Build config, system, measure and scheme, then warm every layer."""
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, result) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def _build(self, config_path):
        config = qdims.ExperimentConfig.from_file(config_path)
        system = qdims.harness.build_system(config)
        measure = qdims.harness.build_measure(config)
        scheme = qdims.harness.realize_scheme(
            qdims.harness.build_scheme(config, system), config.seed, 0)
        return config, system, measure, scheme

    def _warm(self, config, system, measure, scheme):
        """Tiny calls into each layer the pass uses, so lazy set-up is done."""
        sample = qdims.sample_measure(system, scheme, measure, count=WARM_POINTS,
                                      depth=4, seed=config.seed)
        qdims.check_separation(system, scheme, depth=1)
        qdims.MeshAccumulator.from_sample(sample, max(config.scales)).coarsen(2).moment(2.0)
        qdims.singular.batched_log_singular_values(system.linear_maps(1))
        return sample


class CompareWorkload(Workload):
    """``qdims compare`` on a repo config, with size and tolerance pinned here."""

    config_name = ""
    overrides: dict = {}

    def setup(self):
        raw = _repo_config(self.root, self.config_name)
        raw.update(self.overrides, seed=self.seed)
        self.config_path = _write_json(os.path.join(self.workdir, "config.json"), raw)
        config, system, measure, scheme = self._build(self.config_path)
        self.expected_rows = len(config.q_values) * config.realizations
        self._warm(config, system, measure, scheme)

    def run_pass(self):
        return _quiet_cli(["compare", "--config", self.config_path, "--out", self.out])

    def check(self, rc):
        checks = [("compare exit code", rc == 0)]
        rows = qdims.harness.parse_report_csv(os.path.join(self.out, "report.csv"))
        checks.append(("report row count", len(rows) == self.expected_rows))
        checks.extend((f"row q={row.q:g} passes", row.passed) for row in rows)
        return checks


class CantorSpectrum(CompareWorkload):
    """1-D similarity, finite-set translations, 1e6 points, four q.

    Uses bin-once-for-all-q and the scalar sampler; bypasses singular and theory.
    """

    name = "cantor_spectrum"
    config_name = "cantor.json"
    overrides = {"samples": 1_000_000, "depth": None, "realizations": 1, "q": [0.5, 1, 2, 3],
                 "scales": {"base": 2, "min_exp": 4, "max_exp": 12}, "tolerance": 0.05}


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# two alternating levels of three rotated (non-diagonal) maps
AFFINE_LEVELS = [
    [_rotation(math.pi / 6) @ np.diag([0.50, 0.30]),
     _rotation(-math.pi / 5) @ np.diag([0.45, 0.35]),
     _rotation(math.pi / 3) @ np.diag([0.40, 0.25])],
    [_rotation(math.pi / 4) @ np.diag([0.55, 0.20]),
     _rotation(-math.pi / 7) @ np.diag([0.35, 0.30]),
     _rotation(2 * math.pi / 5) @ np.diag([0.50, 0.40])],
]
AFFINE_MEASURE = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]
AFFINE_Q = (1.5, 3.0)
# a level-varying similarity table whose branching alternates between 2 and 3
SIMILAR_RATIOS = [[0.3, 0.45], [0.2, 0.25, 0.3]]
SIMILAR_MEASURE = [[0.6, 0.4], [0.2, 0.5, 0.3]]
SIMILAR_Q = (0.5, 1.0, 2.0, 3.0)


def theory_configs(seed: int) -> tuple[dict, dict]:
    """Configs of the affine and similarity tables; the seed moves no exponent."""
    common = {"schema_version": 1, "scales": {"base": 2, "min_exp": 4, "max_exp": 12},
              "seed": int(seed)}
    affine = dict(common,
                  system={"kind": "affine",
                          "matrices": [np.asarray(level).tolist() for level in AFFINE_LEVELS]},
                  translations={"kind": "random-box", "low": [0.0, 0.0], "high": [1.0, 1.0]},
                  measure={"p": AFFINE_MEASURE}, q=list(AFFINE_Q))
    similar = dict(common,
                   system={"kind": "similar", "dim": 1, "ratios": SIMILAR_RATIOS},
                   translations={"kind": "finite-set", "vectors": [[0.0], [0.5], [0.75]]},
                   measure={"p": SIMILAR_MEASURE}, q=list(SIMILAR_Q))
    return affine, similar


def theory_values(affine, cli_rows, cutsets) -> dict:
    """Exponents of one theory pass, in the layout of ``references.json``."""
    return {
        "affine": [ce.value for ce in affine],
        "product": [[row["bracket_lo"], row["bracket_hi"]] for row in cli_rows],
        "cutset": [[ce.lower, ce.upper] for ce in cutsets],
    }


def read_theory_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [ln.split(",") for ln in fh.read().splitlines()[1:] if ln]
    return [{"q": float(p[0]), "bracket_lo": float(p[3]), "bracket_hi": float(p[4])}
            for p in lines]


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


class TheoryLevels(Workload):
    """Theory only: exhaustive depth-12 spectra (531k words) of the affine table
    for two q, plus the product form (via the CLI) and the cut-set form of
    the similarity table. Uses spectra-once; the only codespace caller.
    """

    name = "theory_levels"

    def build(self):
        affine_cfg, similar_cfg = theory_configs(self.seed)
        self.affine_path = _write_json(os.path.join(self.workdir, "affine.json"), affine_cfg)
        self.similar_path = _write_json(os.path.join(self.workdir, "similar.json"), similar_cfg)
        _, self.system, self.measure, _ = self._build(self.affine_path)
        _, self.similar, self.similar_measure, _ = self._build(self.similar_path)

    def setup(self):
        self.build()
        with open(REFERENCES) as fh:
            self.reference = json.load(fh)
        qdims.affine_series_dimension(self.system, self.measure, 2.0, depth=4)
        qdims.singular.batched_log_singular_values(self.system.linear_maps(1))
        qdims.codespace.scale_cut_set_masses(self.similar.ratio_schedule,
                                             self.similar_measure, 0.1)

    def run_pass(self):
        affine = [qdims.harness.theoretical_exponents(self.system, self.measure, q)
                  for q in AFFINE_Q]
        rc = _quiet_cli(["theory", "--config", self.similar_path, "--out", self.out])
        cutsets = [qdims.theory.cutset_dimension(self.similar, self.similar_measure, q)
                   for q in SIMILAR_Q]
        return affine, rc, cutsets

    def check(self, result):
        affine, rc, cutsets = result
        rows = read_theory_csv(os.path.join(self.out, "theory.csv"))
        checks = [("theory exit code and rows",
                   rc == 0 and [r["q"] for r in rows] == list(SIMILAR_Q))]
        got = theory_values(affine, rows, cutsets)
        ref = self.reference
        for q, ce in zip(AFFINE_Q, affine):
            lo, hi = ce.diagnostics["bracket"]
            checks.append((f"affine q={q:g} inside its bracket", lo <= ce.value <= hi))
        for q, value, want in zip(AFFINE_Q, got["affine"], ref["affine"]):
            checks.append((f"affine q={q:g} matches reference",
                           abs(value - want) <= XTOL_TRUNCATED))
        for family in ("product", "cutset"):
            for q, pair, want in zip(SIMILAR_Q, got[family], ref[family]):
                ok = all(abs(a - b) <= XTOL_TRUNCATED for a, b in zip(pair, want))
                checks.append((f"{family} q={q:g} matches reference", ok))
        checks.append(("affine nonincreasing in q", _nonincreasing(got["affine"])))
        for family in ("product", "cutset"):
            for side, label in ((0, "lower"), (1, "upper")):
                checks.append((f"{family} {label} nonincreasing in q",
                               _nonincreasing([pair[side] for pair in got[family]])))
        return checks


class SampleExport(Workload):
    """CLI sample then CLI estimate on 1e5 points, scales 2^-5..2^-12.

    CSV write and read-back, finite-set plus jitter translations, and the
    estimator on points reloaded from disk.
    """

    name = "sample_export"
    q_arg = "0.5,1,2,3"
    samples = 100_000

    def setup(self):
        raw = _repo_config(self.root, "affine_finite_gamma.json")
        raw.update(samples=self.samples, depth=None, seed=self.seed)
        self.config_path = _write_json(os.path.join(self.workdir, "config.json"), raw)
        config, system, measure, scheme = self._build(self.config_path)
        sample = self._warm(config, system, measure, scheme)
        warm_csv = os.path.join(self.workdir, "warm.csv")
        qdims.systems.save_sample_csv(sample, warm_csv)
        qdims.systems.load_sample_csv(warm_csv)
        self.points = os.path.join(self.out, "points.csv")

    def run_pass(self):
        rc_sample = _quiet_cli(["sample", "--config", self.config_path, "--out", self.out])
        rc_estimate = _quiet_cli(["estimate", self.points, "--q", self.q_arg,
                                  "--scales", "5:12", "--out", self.out])
        return rc_sample, rc_estimate

    def check(self, result):
        rc_sample, rc_estimate = result
        checks = [("sample and estimate exit codes", rc_sample == 0 and rc_estimate == 0)]
        reloaded = qdims.systems.load_sample_csv(self.points)
        checks.append(("reloaded row count equals points written",
                       len(reloaded) == self.samples))
        with open(os.path.join(self.out, "fits.csv")) as fh:
            fits = [ln.split(",") for ln in fh.read().splitlines()[1:] if ln]
        fitted = [float(f[0]) for f in fits if math.isfinite(float(f[1]))]
        q_values = [float(t) for t in self.q_arg.split(",")]
        for q in q_values:
            checks.append((f"one fit for q={q:g}", fitted.count(q) == 1))
        checks.append(("no fit for an unrequested q", len(fits) == len(q_values)))
        return checks


WORKLOADS = {cls.name: cls for cls in (CantorSpectrum, TheoryLevels, SampleExport)}
