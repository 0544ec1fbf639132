import argparse
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from oracles import translation, write_sample_rows

from qdims import cli, empirical, harness, systems, theory
from qdims.cli import main as cli_main
from qdims.codespace import BernoulliMeasure
from qdims.empirical import MeshAccumulator
from qdims.errors import ConfigError, InsufficientScalesError, SampleError
from qdims.harness import (
    REPORT_HEADER,
    ComparisonReport,
    ExperimentConfig,
    ReportRow,
    build_measure,
    build_scheme,
    build_system,
    build_system_and_measure,
    claim_for,
    emit_report,
    parse_report_csv,
    realize_scheme,
    render_report_csv,
    run_experiment,
    theoretical_exponents,
)
from qdims.systems import (
    AttractorSample,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    _sample_stream,
    _write_csv_blocks,
    load_sample_csv,
    sample_measure,
    save_sample_csv,
)

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

CANTOR_CONFIG = {
    "schema_version": 1,
    "system": {"kind": "similar", "dim": 1, "ratios": [[1 / 3, 1 / 3]]},
    "translations": {"kind": "finite-set", "vectors": [[0.0], [2 / 3]]},
    "measure": {"p": [[0.75, 0.25]]},
    "q": [0.5, 2],
    "scales": {"base": 2, "min_exp": 4, "max_exp": 10},
    "samples": 50_000,
    "seed": 3,
}


# a finest size at which the cells of points past 0.999 lie beyond 2**61
FAR_SCALES = [0.999 * 2.0**-61] + [2.0**-e for e in range(4, 13)]
# the period roots of the two-level table (ROADMAP item 2)
TWO_LEVEL_ROOTS = {0.5: 0.482563, 1.0: 0.456176, 2.0: 0.415033, 3.0: 0.387667}
WINDOW_RULE = ("ROADMAP item 4: the fit window is shorter than one log-period of the "
               "two-level schedule, and its slope misses the root by about 0.06")


class TestConfig:
    def test_round_values(self):
        cfg = ExperimentConfig.from_dict(CANTOR_CONFIG)
        assert cfg.q_values == (0.5, 2.0)
        assert cfg.scales[0] == 2.0**-4
        assert cfg.scales[-1] == 2.0**-10
        assert cfg.realizations == 1

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"system": {}, "translations": {}, "measure": {}})

    @pytest.mark.parametrize("section", ["system", "translations", "measure"])
    def test_section_that_is_not_an_object_rejected(self, section):
        # dict() would take a list of pairs, and an empty list as an empty section
        with pytest.raises(ConfigError, match=rf"^{section} must be an object, got \[\]$"):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **{section: []}))

    def test_bad_schema_version(self):
        raw = dict(CANTOR_CONFIG, schema_version=99)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_nonpositive_q_rejected(self):
        raw = dict(CANTOR_CONFIG, q=[0.0, 2])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_explicit_scale_list(self):
        raw = dict(CANTOR_CONFIG, scales=[0.25, 0.125])
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.scales == (0.25, 0.125)

    @pytest.mark.parametrize("override", [
        {"samples": 0},
        {"realizations": 0},
        {"scales": []},
        {"scales": [0.25, 0.0]},
        {"scales": {"base": 2, "min_exp": 10, "max_exp": 4}},
        {"q": []},
        {"depth": 0},
        {"depth": -3},
        {"seed": -1},
        {"tolerance": -1},
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"q": [2, float("inf")]},
        {"q": [float("nan")]},
    ], ids=["samples", "realizations", "empty-scales", "zero-scale", "empty-scale-range",
            "empty-q", "depth-zero", "depth-negative", "seed-negative", "tolerance-negative",
            "tolerance-nan", "tolerance-inf", "q-inf", "q-nan"])
    def test_degenerate_sizes_rejected(self, override):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **override))

    @pytest.mark.parametrize("field, override", [
        ("samples", {"samples": 2.5}),
        ("realizations", {"realizations": True}),
        ("depth", {"depth": 7.9}),
        ("seed", {"seed": 7.7}),
        ("scales.min_exp", {"scales": {"base": 2, "min_exp": 4.5, "max_exp": 10}}),
        ("scales.max_exp", {"scales": {"base": 2, "min_exp": 4, "max_exp": 10.5}}),
        ("schema_version", {"schema_version": 1.5}),
    ], ids=lambda value: value.rpartition(".")[2] if isinstance(value, str) else "")
    def test_non_integral_integer_field_rejected(self, field, override):
        # int() would truncate each of these silently
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be an integer"):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **override))

    @pytest.mark.parametrize("key", ["min_exp", "max_exp"])
    def test_scales_without_an_exponent_rejected(self, key):
        scales = {"base": 2, "min_exp": 4, "max_exp": 10}
        del scales[key]
        with pytest.raises(ConfigError,
                           match=rf"^scales is missing required key '{key}'$"):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, scales=scales))

    @pytest.mark.parametrize("field, override", [
        ("q[0]", {"q": ["a"]}),
        ("tolerance", {"tolerance": "x"}),
        ("scales[1]", {"scales": [0.5, "b"]}),
        ("scales.base", {"scales": {"base": "two", "min_exp": 4, "max_exp": 10}}),
        ("q[1]", {"q": [2, True]}),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_non_numeric_field_rejected(self, field, override):
        # float() would end each of the first four in a bare ValueError, and
        # read True as 1
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be a number, got ")):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **override))

    def test_integral_floats_accepted(self):
        raw = dict(CANTOR_CONFIG, samples=1e6, realizations=2.0, depth=7.0, seed=3.0,
                   schema_version=1.0, scales={"base": 2, "min_exp": 4.0, "max_exp": 10.0})
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.samples, cfg.realizations, cfg.depth, cfg.seed) == (1_000_000, 2, 7, 3)
        assert cfg.scales == ExperimentConfig.from_dict(CANTOR_CONFIG).scales
        assert all(type(v) is int for v in (cfg.samples, cfg.realizations, cfg.depth,
                                            cfg.seed, cfg.schema_version))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CANTOR_CONFIG))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.samples == 50_000


class TestBuilders:
    def test_unknown_system_kind(self):
        cfg = ExperimentConfig.from_dict(dict(CANTOR_CONFIG, system={"kind": "weird"}))
        with pytest.raises(ConfigError):
            build_system(cfg)

    def test_translation_dim_mismatch(self):
        raw = dict(CANTOR_CONFIG,
                   translations={"kind": "finite-set", "vectors": [[0.0, 0.0]]})
        cfg = ExperimentConfig.from_dict(raw)
        system = build_system(cfg)
        with pytest.raises(ConfigError):
            build_scheme(cfg, system)

    def test_explicit_table_keys(self):
        raw = dict(CANTOR_CONFIG,
                   translations={"kind": "explicit",
                                 "table": {"1": [0.0], "2": [2 / 3]}})
        cfg = ExperimentConfig.from_dict(raw)
        scheme = build_scheme(cfg, build_system(cfg))
        assert translation(scheme, (2,))[0] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("field, section, message", [
        ("system", {"kind": "similar", "dim": 1.7, "ratios": [[1 / 3, 1 / 3]]},
         "system.dim must be an integer, got 1.7"),
        ("translations", {"kind": "random-box", "low": [0.0], "high": [0.5], "seed": 7.5},
         "translations.seed must be an integer, got 7.5"),
        ("translations", {"kind": "finite-set", "vectors": [[0.0], [2 / 3]],
                          "assignment": {"1": 1.9}},
         "assignment['1'] must be an integer, got 1.9"),
        ("translations", {"kind": "explicit", "table": {"1": [0.0], "1.5": [2 / 3]}},
         "prefix key '1.5' must be comma-separated integers"),
    ], ids=["system-dim", "random-box-seed", "assignment-index", "prefix-key"])
    def test_non_integral_section_integer_rejected(self, field, section, message):
        # int() would truncate the first three silently and fail the last with
        # a bare ValueError
        cfg = ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **{field: section}))
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_scheme(cfg, build_system(cfg))


    @pytest.mark.parametrize("field, section, message", [
        ("measure", {"p": [[0.75, 0.2]]}, "probability vector sums to 0.95"),
        ("system", {"kind": "similar", "dim": 1, "ratios": [[1.5, 1 / 3]]},
         "similarity ratios must lie strictly in (0, 1)"),
        ("translations", {"kind": "finite-set", "vectors": [[0.0], [2 / 3]],
                          "jitter_radius": -1},
         "jitter_radius must be finite and non-negative, got -1.0"),
        ("translations", {"kind": "finite-set", "vectors": [[0.0], [2 / 3]], "assignment": 3},
         "translations.assignment must be an object, got 3"),
        ("translations", {"kind": "finite-set"},
         "translations is missing required key 'vectors'"),
        ("translations", {"kind": "random-box", "low": [0.0]},
         "translations is missing required key 'high'"),
        ("translations", {"kind": "explicit"}, "translations is missing required key 'table'"),
        ("translations", {"kind": "explicit", "table": [[0.0]]},
         "translations.table must be an object, got [[0.0]]"),
        ("system", {"kind": "similar", "dim": 1}, "system is missing required key 'ratios'"),
        ("system", {"kind": "affine"}, "system is missing required key 'matrices'"),
        ("measure", {"tail": [[0.5, 0.5]]}, "measure is missing required key 'p'"),
        ("translations", {"kind": "finite-set", "vectors": [[0.0], [None]]},
         "translation vectors must be finite"),
        ("translations", {"kind": "explicit", "table": {"1": [0.0], "2": None}},
         "translation of prefix (2,) must be finite, got [nan]"),
        ("translations", {"kind": "random-box", "low": [float("nan")], "high": [1.0]},
         "box bounds must be finite"),
        ("translations", {"kind": "random-box", "low": {"a": 1}, "high": [1.0]},
         "translations.low must be a list, got {'a': 1}"),
        ("translations", {"kind": "random-box", "low": [0.0], "high": ["1"]},
         "translations.high[0] must be a number, got '1'"),
    ], ids=["measure-sum", "system-ratio", "negative-jitter", "assignment-number",
            "no-vectors", "no-high", "no-table", "table-list", "no-ratios", "no-matrices",
            "no-p", "null-vector", "null-table-entry", "nan-low", "low-object",
            "high-string"])
    def test_constructor_rejection_is_a_config_error(self, tmp_path, capsys, field, section,
                                                     message):
        # the constructor's ValueError, or a missing or malformed field, with
        # its message; each section is built in turn, by compare and, where it
        # builds the section, by check-separation
        raw = dict(CANTOR_CONFIG, **{field: section})
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_measure(cfg)
            build_scheme(cfg, build_system(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for argv in [["compare", "--out", str(tmp_path)]] + (
                [["check-separation"]] if field != "measure" else []):
            assert cli_main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1
            assert list(tmp_path.iterdir()) == [path]


    @pytest.mark.parametrize("field, override", [
        ("q", {"q": 2}),
        ("scales", {"scales": 0.5}),
        ("measure.p", {"measure": {"p": 5}}),
        ("system.ratios", {"system": {"kind": "similar", "dim": 1, "ratios": 0.3}}),
        ("system.matrices", {"system": {"kind": "affine", "matrices": 0.5}}),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_scalar_in_place_of_a_list_is_a_config_error(self, tmp_path, capsys, field,
                                                         override):
        # each used to end in "TypeError: ... is not iterable" and exit 1
        raw = dict(CANTOR_CONFIG, **override)
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be a list, got ")):
            build_system_and_measure(ExperimentConfig.from_dict(raw))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be a list") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]


class TestTheorySelection:
    def test_similar_stationary_closed_form(self):
        cfg = ExperimentConfig.from_dict(CANTOR_CONFIG)
        system = build_system(cfg)
        measure = BernoulliMeasure([[0.75, 0.25]])
        ce = theoretical_exponents(system, measure, 2)
        assert ce.method == "closed-form"
        assert ce.value == pytest.approx(np.log(1.6) / np.log(3), abs=1e-9)

    def test_similar_nonstationary_product(self):
        system = SimilarSystem([[0.5, 0.5], [0.25, 0.25]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        ce = theoretical_exponents(system, measure, 2)
        assert ce.method == "closed-form" and ce.lower == ce.upper

    def test_affine_stationary(self):
        raw = dict(CANTOR_CONFIG,
                   system={"kind": "affine",
                           "matrices": [[[[0.4, 0.0], [0.0, 0.3]],
                                         [[0.3, 0.0], [0.0, 0.4]]]]},
                   translations={"kind": "random-box", "low": [0, 0],
                                 "high": [1, 1], "seed": 1},
                   measure={"p": [[0.5, 0.5]]})
        cfg = ExperimentConfig.from_dict(raw)
        system = build_system(cfg)
        ce = theoretical_exponents(system, BernoulliMeasure([[0.5, 0.5]]), 2)
        assert ce.method == "affine-k-limit"

    def test_affine_rejects_small_q(self):
        raw = dict(CANTOR_CONFIG,
                   system={"kind": "affine",
                           "matrices": [[[[0.4, 0.0], [0.0, 0.3]],
                                         [[0.3, 0.0], [0.0, 0.4]]]]})
        cfg = ExperimentConfig.from_dict(raw)
        system = build_system(cfg)
        with pytest.raises(ConfigError):
            theoretical_exponents(system, BernoulliMeasure([[0.5, 0.5]]), 0.5)

    def test_level_varying_affine_rejects_q_one(self):
        system = build_system(ExperimentConfig.from_dict(dict(
            CANTOR_CONFIG, system={"kind": "affine",
                                   "matrices": [[[[0.4, 0.0], [0.0, 0.3]]] * 2,
                                                [[[0.3, 0.0], [0.0, 0.4]]] * 2]})))
        with pytest.raises(ConfigError):
            theoretical_exponents(system, BernoulliMeasure([[0.5, 0.5]]), 1.0)

    # recorded with the Illinois-Dekker root finder, with the level sums formed
    # from the letter tables and the stored rows P_1; each row keeps the bisected value and bracket recorded while stationary
    # affine tables had a solver of their own, which the new root must stay
    # within xtol of
    @pytest.mark.parametrize("q, value, bracket, bisected, bisected_bracket, xtol", [
        (1.0, 1.2432214049670827, (1.2432214024670825, 1.2432214074670827),
         1.2432214058935642, (1.243221402168274, 1.2432214096188545), 1e-8),
        (1.5, 1.2422598663576934, (1.2422598244935854, 1.2422599082218015),
         1.242259830236435, (1.2422598004341125, 1.2422598600387573), 1e-7),
        (2.0, 1.2413042368665521, (1.2413042118664894, 1.241304261866615),
         1.2413042485713959, (1.2413042187690735, 1.2413042783737183), 1e-7),
        (3.0, 1.239413334269773, (1.2394133092686603, 1.2394133592708858),
         1.2394133508205414, (1.239413321018219, 1.2394133806228638), 1e-7),
    ], ids=["1.0-1.2432214058935642-bracket0", "1.5-1.242259830236435-bracket1",
            "2.0-1.2413042485713959-bracket2", "3.0-1.2394133508205414-bracket3"])
    def test_affine_config_matches_recorded_values(self, q, value, bracket, bisected,
                                                   bisected_bracket, xtol):
        config = ExperimentConfig.from_file(
            os.path.join(REPO, "configs", "affine_finite_gamma.json"))
        ce = theoretical_exponents(build_system(config), build_measure(config), q)
        assert ce.method == "affine-k-limit"
        assert (ce.value, ce.lower, ce.upper) == (value, value, value)
        assert ce.diagnostics["bracket"] == bracket
        assert abs(value - bisected) <= xtol
        assert bracket[0] <= bisected_bracket[1] and bisected_bracket[0] <= bracket[1]
        if q in self.ENUMERATED:
            old, (lo, hi) = self.ENUMERATED[q]
            assert abs(value - old) <= xtol and bracket[0] <= hi and lo <= bracket[1]

    # the values and brackets recorded with every level sum enumerated
    ENUMERATED = {1.0: (1.2432214024671964, (1.2432213974671964, 1.2432214074671963)),
                  1.5: (1.2422598663576916, (1.2422598244935832, 1.2422599082217998))}


class TestClaims:
    def test_ssc_similar_gets_equality(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [2 / 3]])
        assert claim_for(system, scheme, 2, ssc_holds=True) == "equality:similar+ssc"

    def test_osc_but_not_ssc_downgrades_to_upper_bound(self):
        # abutting halves: open-set separation only
        system = SimilarSystem([[0.5, 0.5]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5]])
        assert claim_for(system, scheme, 2, ssc_holds=False) == "upper-bound"

    def test_random_translations_q_above_one(self):
        system = SimilarSystem([[0.4, 0.4]])
        scheme = RandomBoxTranslations(low=[0.0], high=[1.0], seed=0)
        assert claim_for(system, scheme, 2, False) == "as-equality:random-translations"
        assert claim_for(system, scheme, 0.5, False) == "upper-bound"

    def test_finite_set_needs_small_norms(self):
        scheme = FiniteTranslationSet(vectors=[[0.0], [1.0]], jitter_radius=0.1)
        small = SimilarSystem([[0.4, 0.4]])
        big = SimilarSystem([[0.6, 0.6]])
        assert claim_for(small, scheme, 2, False) == "as-equality:finite-translations"
        assert claim_for(big, scheme, 2, False) == "upper-bound"
        assert claim_for(small, scheme, 3, False) == "upper-bound"

    def test_q_one_needs_a_stationary_system(self):
        stationary = SimilarSystem([[0.4, 0.4]])
        varying = SimilarSystem([[0.4, 0.4], [0.3, 0.3]])
        box = RandomBoxTranslations(low=[0.0], high=[1.0], seed=0)
        jittered = FiniteTranslationSet(vectors=[[0.0], [1.0]], jitter_radius=0.1)
        assert claim_for(stationary, box, 1, False) == "as-equality:random-translations"
        assert claim_for(stationary, jittered, 1, False) == "as-equality:finite-translations"
        assert claim_for(varying, box, 1, False) == "upper-bound"
        assert claim_for(varying, jittered, 1, False) == "upper-bound"

    def test_fixed_translations_only_bound_from_above(self):
        system = SimilarSystem([[0.4, 0.4]])
        explicit = ExplicitTranslations({(1,): [0.0], (2,): [1.0]})
        fixed = FiniteTranslationSet(vectors=[[0.0], [1.0]])
        for scheme in (explicit, fixed):
            assert claim_for(system, scheme, 2, False) == "upper-bound"


class TestRunExperiment:
    def test_cantor_rows(self):
        cfg = ExperimentConfig.from_dict(CANTOR_CONFIG)
        report = run_experiment(cfg)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.method.startswith("closed-form[equality:similar+ssc]")
            assert row.passed
        assert report.meta["separation"][0]["holds_at_depth"] is True
        assert report.meta["separation"][0]["all_depths"] is True

    @pytest.mark.parametrize("assignment", [None, {"1": 1}], ids=["plain", "no-op-assignment"])
    def test_overlapping_pieces_claim_no_equality(self, assignment):
        # the second and third pieces overlap; the no-op assignment makes the
        # scheme prefix-keyed, so it is walked, and a walk's "holds" would
        # cover only levels 1..depth in any case
        translations = {"kind": "finite-set", "vectors": [[0.0], [0.72], [0.415]]}
        if assignment is not None:
            translations["assignment"] = assignment
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1, "ratios": [[0.3] * 3]},
                   translations=translations, measure={"p": [[1 / 3] * 3]}, q=[2],
                   samples=200_000)
        report = run_experiment(ExperimentConfig.from_dict(raw))
        [row] = report.rows
        assert row.method == "closed-form[upper-bound]"
        [sep] = report.meta["separation"]
        assert (sep["holds_at_depth"], sep["all_depths"]) == (False, assignment is None)

    def test_walked_holds_backs_no_equality_claim(self):
        # pieces in [0, 0.111] and [0.9, 1]: the invariant boxes hold for
        # every depth; with a no-op assignment the same set is walked, and
        # its cube images [-0.1, 0.1] and [0.8, 1] hold at the walked levels only
        methods = {}
        for assignment in (None, {"1": 1}):
            translations = {"kind": "finite-set", "vectors": [[0.0], [0.9]]}
            if assignment is not None:
                translations["assignment"] = assignment
            raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1, "ratios": [[0.1] * 2]},
                       translations=translations, q=[2], samples=20_000)
            report = run_experiment(ExperimentConfig.from_dict(raw))
            [sep] = report.meta["separation"]
            assert sep["holds_at_depth"]
            methods[sep["all_depths"]] = report.rows[0].method
        assert methods == {True: "closed-form[equality:similar+ssc]",
                           False: "closed-form[upper-bound]"}

    def test_realizations_rows_and_norm_check(self):
        raw = dict(
            CANTOR_CONFIG,
            system={"kind": "affine",
                    "matrices": [[[[0.45, 0.0], [0.0, 0.4]],
                                  [[0.4, 0.0], [0.0, 0.35]]]]},
            translations={"kind": "finite-set",
                          "vectors": [[0.0, 0.0], [0.5, 0.3]],
                          "jitter_radius": 0.3},
            measure={"p": [[0.5, 0.5]]},
            q=[2],
            scales={"base": 2, "min_exp": 3, "max_exp": 9},
            samples=40_000,
            realizations=3,
        )
        cfg = ExperimentConfig.from_dict(raw)
        report = run_experiment(cfg)
        assert len(report.rows) == 3
        assert report.meta["norm_below_half"] is True
        assert {row.method for row in report.rows} == {
            "affine-k-limit[as-equality:finite-translations]"
        }

    def test_bins_once_per_realization(self, monkeypatch):
        from qdims.empirical import MeshAccumulator

        fed = []
        add = MeshAccumulator.add

        def counting(self, points, weights):
            fed.append((self, len(points), float(np.sum(weights))))
            return add(self, points, weights)

        monkeypatch.setattr(MeshAccumulator, "add", counting)
        raw = dict(CANTOR_CONFIG, q=[0.5, 1, 2, 3], samples=20_000, realizations=3,
                   translations={"kind": "random-box", "low": [0.0], "high": [2.0]})
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert report.meta["realizations"] == 3 and len(report.rows) == 12
        # each realization's sample goes into the one finest-scale
        # accumulator of its realization; ``fed`` keeps them alive, so their
        # ids stay distinct
        binned = {id(acc): acc.r for acc, _, _ in fed}
        assert list(binned.values()) == [2.0**-10] * 3
        # the depth-10 tree's 1,024 words fit the word table: each
        # realization bins one block of at most one point per word, which
        # carries the whole sample's mass
        assert len(fed) == 3 and all(rows <= 2**10 for _, rows, _ in fed)
        assert [mass for _, _, mass in fed] == pytest.approx([1.0] * 3, abs=1e-12)

    def test_memory_bounded_by_block_not_sample_count(self):
        # the points and weights of 1e6 samples alone would take 16 MB; the
        # blocks are binned as they are drawn, and the peak is about 3.5 MB
        cfg = ExperimentConfig.from_dict(dict(CANTOR_CONFIG, samples=1_000_000))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mismatched_measure(self):
        raw = dict(CANTOR_CONFIG, measure={"p": [[0.5, 0.25, 0.25]]})
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestReports:
    def _tiny_report(self):
        row = ReportRow(q=2.0, d_theory=0.5, method="closed-form[equality:similar+ssc]",
                        bracket_lo=0.5, bracket_hi=0.5, clamped=False,
                        d_empirical=0.49, fit_err=0.01, passed=True)
        return ComparisonReport(rows=(row,), meta={"seed": 0})

    def test_empty_rows_header_only(self):
        report = ComparisonReport(rows=(), meta={})
        text = render_report_csv(report)
        assert text == ",".join(REPORT_HEADER) + "\n"

    def test_single_row_two_lines(self):
        text = render_report_csv(self._tiny_report())
        assert len(text.strip().splitlines()) == 2

    def test_round_trip(self, tmp_path):
        report = self._tiny_report()
        paths = emit_report(report, tmp_path)
        assert parse_report_csv(paths["csv"]) == report.rows

    def test_full_pipeline_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CANTOR_CONFIG)
        report = run_experiment(cfg)
        paths = emit_report(report, tmp_path)
        assert parse_report_csv(paths["csv"]) == report.rows

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CANTOR_CONFIG)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        p1 = emit_report(r1, tmp_path / "a")
        p2 = emit_report(r2, tmp_path / "b")
        for key in ("csv", "text"):
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()


class TestStreamingInvariance:
    """Reports do not depend on the sampling chunk or on where folds fall.

    Cantor's cells are counted, not sorted; its 1,024-word tree fits the word
    table, so its sample is one counted block whatever the chunk size, and
    only the fold size varies for it. The 2-D affine config's finest scale
    spans about a million cells, so it sorts, and its scales step once by a
    non-integer factor, so two base accumulators share the stream.
    """

    @pytest.mark.parametrize("name, overrides", [
        ("cantor.json", {"samples": 4000}),
        ("affine_finite_gamma.json", {
            "samples": 3000, "realizations": 2,
            "scales": [0.25, 0.125, 0.0625, 0.03125, 0.02, 0.01, 0.005, 0.0025, 0.00125]}),
    ], ids=["cantor", "affine_finite_gamma"])
    def test_reports_are_byte_identical(self, tmp_path, name, overrides):
        with open(os.path.join(REPO, "configs", name)) as fh:
            raw = json.load(fh)
        raw.update(overrides)
        cfg = ExperimentConfig.from_dict(raw)
        outputs = set()
        for chunk_rows in (7, 1000, cfg.samples):
            for fold_rows in (1, 64, 2**16):
                with mock.patch.object(systems, "_SAMPLE_CHUNK_ROWS", chunk_rows), \
                        mock.patch.object(empirical, "_FOLD_ROWS", fold_rows):
                    paths = emit_report(run_experiment(cfg), tmp_path / f"{chunk_rows}-{fold_rows}")
                outputs.add(tuple(Path(paths[key]).read_bytes() for key in ("csv", "text")))
        assert len(outputs) == 1


def _streamed_binning_error(config):
    """The message of the binning error that ``run_experiment``'s first
    realization meets when it streams its sample into the config's scales."""
    system, measure = build_system_and_measure(config)
    scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
    _, blocks = _sample_stream(system, scheme, measure, count=config.samples,
                               depth=config.depth, seed=config.seed,
                               target_resolution=min(config.scales))
    with pytest.raises(InsufficientScalesError) as exc:
        empirical._stream_spectrum(blocks, config.q_values, config.scales)
    return str(exc.value)


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CANTOR_CONFIG))
        return str(path)

    def test_theory_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out
        assert (tmp_path / "theory.csv").exists()

    def test_theory_notes_a_clamp_only_on_clamped_rows(self, tmp_path, capsys):
        # overlapping maps: the q = 0.25 exponent exceeds the ambient dimension
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1, "ratios": [[0.6, 0.6]]},
                   translations={"kind": "finite-set", "vectors": [[0.0], [0.4]]},
                   measure={"p": [[0.9, 0.1]]}, q=[0.25, 3])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["theory", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["q=0.25: d=1.120816 (clamped to 1.000000) [closed-form]",
                         "q=3: d=0.308041 [closed-form]"]

    def test_sample_then_estimate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        points = os.path.join(str(tmp_path), "points.csv")
        assert cli_main(["estimate", points, "--q", "2", "--scales", "4:10",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "spectrum.csv").exists()
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header == "q,r,sum,cells"

    @pytest.mark.parametrize("chunk_rows", [7, 1000, 3000])
    def test_sample_streams_the_bytes_of_the_whole_sample(self, tmp_path, capsys, chunk_rows):
        # the affine finite-set config: matrix-path points and jittered offsets
        with open(os.path.join(REPO, "configs", "affine_finite_gamma.json")) as fh:
            raw = dict(json.load(fh), samples=3000, depth=None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        config = ExperimentConfig.from_dict(raw)
        system = build_system(config)
        scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
        sample = sample_measure(system, scheme, build_measure(config), count=3000,
                                seed=config.seed, target_resolution=min(config.scales))
        save_sample_csv(sample, tmp_path / "whole.csv")
        with mock.patch.object(systems, "_SAMPLE_CHUNK_ROWS", chunk_rows):
            assert cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        points = tmp_path / "points.csv"
        assert points.read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert capsys.readouterr().out == (
            f"wrote 3000 points to {points} (depth={sample.meta['depth']}, "
            f"truncation={sample.meta['truncation_bound']:.3g})\n")

    def test_sample_memory_bounded_by_block_not_sample_count(self, tmp_path, capsys):
        # 2e5 points and weights alone would take 3.2 MB; written as they are
        # drawn, the peak is about 2.3 MB (5.4 MB when the sample was held)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CANTOR_CONFIG, samples=200_000)))
        tracemalloc.start()
        try:
            assert cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_failed_sample_leaves_no_file(self, tmp_path):
        written = []

        def fail_on_second_block(fh, blocks):
            for block in blocks:
                if written:
                    raise RuntimeError("disk gone")
                _write_csv_blocks(fh, [block])
                written.append(len(block[-1]))

        # at depth 20 the word tree is too big for the word table, so the
        # sample is drawn in chunks
        raw = dict(CANTOR_CONFIG, samples=3 * systems._SAMPLE_CHUNK_ROWS, depth=20)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with mock.patch("qdims.cli._write_csv_blocks", fail_on_second_block), \
                pytest.raises(RuntimeError, match="disk gone"):
            cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
        assert written == [systems._SAMPLE_CHUNK_ROWS]
        assert not (tmp_path / "points.csv").exists()

    @pytest.mark.parametrize("existing", [b"0.5,1.0\n", None], ids=["existing", "missing"])
    def test_sample_leaves_a_file_it_could_not_open_as_it_was(self, tmp_path, monkeypatch,
                                                              existing):
        cfg = self._write_config(tmp_path)
        points = tmp_path / "points.csv"
        if existing is not None:
            points.write_bytes(existing)

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        # the open's own error, not os.remove's FileNotFoundError
        with pytest.raises(PermissionError):
            cli_main(["sample", "--config", cfg, "--out", str(tmp_path)])
        if existing is None:
            assert not points.exists()
        else:
            assert points.read_bytes() == existing

    def test_estimate_with_a_zero_weight_point(self, tmp_path, capsys):
        # the zero-weight point sits alone in its cell at every scale
        n = 20_000
        points = np.vstack([np.random.default_rng(18).uniform(0, 1, (n, 1)), [[5.0]]])
        sample = AttractorSample(points=points, weights=np.append(np.full(n, 1.0 / n), 0.0))
        path = tmp_path / "points.csv"
        save_sample_csv(sample, path)
        assert cli_main(["estimate", str(path), "--q", "0.5,1,2",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fits.csv") as fh:
            fits = list(csv.DictReader(fh))
        assert [float(row["q"]) for row in fits] == [0.5, 1.0, 2.0]
        for row in fits:
            assert float(row["dimension"]) == pytest.approx(1.0, abs=0.02)

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path),
                         "--q", "2"]) == 0
        rows = parse_report_csv(tmp_path / "report.csv")
        assert len(rows) == 1 and rows[0].q == 2.0

    def test_check_separation_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["check-separation", "--config", cfg, "--depth", "4",
                         "--kind", "ssc"]) == 0
        out = capsys.readouterr().out
        assert "holds_at_depth=true" in out
        assert "0.333333" in out

    def test_check_separation_output_pinned(self, capsys):
        # recorded when the finite sets were first certified on invariant boxes
        cfg = os.path.join(REPO, "configs", "cantor.json")
        assert cli_main(["check-separation", "--config", cfg, "--depth", "3"]) == 0
        assert capsys.readouterr().out == (
            "kind=ssc depth=3 holds_at_depth=true all_depths=true worst_gap_ratio=0.333333 "
            "witness=((1,), (2,))\n")

    def test_check_separation_says_when_it_walks(self, capsys):
        cfg = os.path.join(REPO, "configs", "affine_random_box.json")
        assert cli_main(["check-separation", "--config", cfg, "--depth", "3"]) == 0
        assert " all_depths=false " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["compare"], ["check-separation", "--depth", "2"]],
                             ids=["compare", "check-separation"])
    def test_incomplete_explicit_table_exits_with_message(self, tmp_path, capsys, argv):
        raw = dict(CANTOR_CONFIG, depth=3,
                   translations={"kind": "explicit", "table": {"1": [0], "2": [0.667]}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "out")] if argv[0] == "compare" else []
        assert cli_main(argv + ["--config", str(path)] + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no translation stored for prefix (1, 1)\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("depth", ["0", "65"])
    def test_check_separation_depth_out_of_range(self, tmp_path, capsys, depth):
        cfg = self._write_config(tmp_path)
        assert cli_main(["check-separation", "--config", cfg, "--depth", depth]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "1..64" in err

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cli._parser.cache_clear()
        with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                               side_effect=argparse.ArgumentParser.__init__) as init:
            assert cli_main(["theory", "--config", cfg]) == 0
            assert cli_main(["check-separation", "--config", cfg, "--depth", "2"]) == 0
            with pytest.raises(SystemExit):
                cli_main(["theory"])
            assert cli_main(["theory", "--config", cfg, "--q", "2"]) == 0
        # the subcommand parsers are built with the top-level one
        assert [c.kwargs.get("prog") for c in init.call_args_list].count("qdims") == 1

    @pytest.mark.parametrize("command", ["theory", "compare"])
    def test_parser_after_usage_error_and_help_runs_as_a_first_call(self, tmp_path, capsys,
                                                                    command):
        cfg = self._write_config(tmp_path)

        def run(name):
            out = tmp_path / name
            assert cli_main([command, "--config", cfg, "--q", "2", "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return capsys.readouterr().out.replace(str(out), "OUT"), files

        def exit_code(argv):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            return exc.value.code, capsys.readouterr()

        cli._parser.cache_clear()
        first = run("first")
        helps = [exit_code(["--help"]), exit_code([command, "--help"])]
        code, usage = exit_code([command, "--q", "2"])
        assert code == 2 and usage.out == "" and "--config" in usage.err
        assert [exit_code(["--help"]), exit_code([command, "--help"])] == helps
        assert [code for code, _ in helps] == [0, 0] and helps[1][1].out.startswith(
            f"usage: qdims {command} ")
        assert run("again") == first and first[1]

    @pytest.mark.parametrize("command, option", [
        ("theory", "--seed"), ("theory", "--tolerance"), ("sample", "--q"),
        ("sample", "--tolerance"), ("check-separation", "--q"),
        ("check-separation", "--tolerance"), ("check-separation", "--out"),
    ])
    def test_option_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                                 command, option):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        # "1" reads as a seed, a q list and a tolerance alike
        argv = [command, "--config", cfg, option, str(out) if option == "--out" else "1"]
        if command != "check-separation":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {option} " in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, option, values", [
        ("theory", "cantor", "--config", ("cantor", "other")),
        ("theory", "cantor", "--q", ("2", "3")),
        ("theory", "cantor", "--out", (None, "RUN/out")),
        ("sample", "cantor", "--config", ("cantor", "other")),
        ("sample", "cantor", "--seed", ("0", "1")),
        ("sample", "cantor", "--out", ("RUN/a", "RUN/b")),
        ("compare", "cantor", "--config", ("cantor", "other")),
        ("compare", "cantor", "--seed", ("0", "1")),
        ("compare", "cantor", "--q", ("2", "3")),
        ("compare", "cantor", "--tolerance", ("0", "1")),
        ("compare", "cantor", "--out", ("RUN/a", "RUN/b")),
        ("check-separation", "cantor", "--config", ("cantor", "other")),
        ("check-separation", "affine_finite_gamma", "--seed", ("0", "1")),
        ("check-separation", "cantor", "--depth", ("2", "3")),
        ("check-separation", "cantor", "--kind", ("ssc", "osc")),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_each_option_changes_what_the_command_prints_or_writes(self, tmp_path, capsys,
                                                                    command, config, option,
                                                                    values):
        # "cantor" and "other" are written here, and differ in ratios and
        # weights; other names are configs/*.json
        configs = {"cantor": CANTOR_CONFIG,
                   "other": dict(CANTOR_CONFIG, measure={"p": [[0.5, 0.5]]},
                                 system={"kind": "similar", "dim": 1,
                                         "ratios": [[0.25, 0.25]]})}
        for name, raw in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(raw))

        def config_path(name):
            local = tmp_path / f"{name}.json"
            return str(local if name in configs else os.path.join(REPO, "configs", local.name))

        def run(index, value):
            # stdout and the files written, with the run's own directory as RUN
            run_dir = tmp_path / str(index)
            run_dir.mkdir()
            options = {"--config": config,
                       "--out": "RUN/out" if command in ("sample", "compare") else None,
                       option: value}
            argv = [command]
            for name, arg in options.items():
                if arg is not None:
                    arg = config_path(arg) if name == "--config" else arg
                    argv += [name, arg.replace("RUN", str(run_dir))]
            assert cli_main(argv) == 0
            files = {p.relative_to(run_dir).as_posix(): p.read_bytes()
                     for p in sorted(run_dir.rglob("*")) if p.is_file()}
            return capsys.readouterr().out.replace(str(run_dir), "RUN"), files

        first, second = (run(i, value) for i, value in enumerate(values))
        assert first != second

    def test_gap_kind_is_not_a_choice(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["check-separation", "--config", cfg, "--kind", "gsc"])
        assert exc.value.code == 2
        assert "invalid choice: 'gsc'" in capsys.readouterr().err

    def test_word_budget_error_exits_with_message(self, tmp_path, capsys):
        # 2**18 words exceed the separation check's budget
        cfg = self._write_config(tmp_path)
        assert cli_main(["check-separation", "--config", cfg, "--depth", "18"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_config_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, samples=0)))
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["theory", "sample", "compare"])
    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {path}: No such file or directory"),
        ('{"a":', "{path} is not valid JSON: Expecting value: line 1 column 6 (char 5)"),
        ("[1, 2]", "config must be an object, got [1, 2]"),
        (json.dumps(dict(CANTOR_CONFIG, system=3)), "system must be an object, got 3"),
    ], ids=["missing-file", "invalid-json", "top-level-list", "system-number"])
    def test_unusable_config_file_exits_with_message(self, tmp_path, capsys, command, text,
                                                     message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["theory", "sample"])
    def test_mismatched_branching_exits_with_message(self, tmp_path, capsys, command):
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1,
                                          "ratios": [[1 / 3, 1 / 3], [0.25, 0.25]]},
                   measure={"p": [[0.5, 0.5], [0.3, 0.3, 0.4]]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: measure branching")
        assert not (out / "points.csv").exists()

    def test_branching_mismatch_past_level_64_exits_with_message(self, tmp_path, capsys):
        # equal branching through level 70, then 3 maps a level against 2 letters
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1,
                                          "ratios": [[1 / 3, 1 / 3]] * 70,
                                          "tail": [[0.2, 0.2, 0.2]]},
                   measure={"p": [[0.75, 0.25]]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: measure branching")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["theory", "compare"])
    def test_overflowing_q_in_the_file_exits_with_message(self, tmp_path, capsys, command):
        # JSON reads 1e400 as inf; the closed form used to print d=0.000000
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, q=[2])).replace('"q": [2]',
                                                                        '"q": [1e400]'))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: ") and "finite" in captured.err
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_q_grid_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, q=[])))
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "report.csv").exists()

    def test_slow_level_varying_contraction_solves_exactly(self, tmp_path, capsys):
        # one period of two levels: 2 log(1/2) - d (log 0.9995 + log 0.9994) = 0
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1,
                                          "ratios": [[0.9995, 0.9995], [0.9994, 0.9994]]},
                   measure={"p": [[0.5, 0.5]]}, q=[2])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["theory", "--config", str(path), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "theory.csv").read_text().splitlines()[1].split(",")
        want = 2 * np.log(2) / -(np.log(0.9995) + np.log(0.9994))
        assert float(row[1]) == pytest.approx(want, rel=1e-12, abs=0)
        assert row[2] == "closed-form" and row[3] == row[4] == row[1]

    def test_two_level_table_gives_exact_period_roots(self, tmp_path, capsys):
        # the nonautonomous similarity table of the paper's equality case
        raw = dict(CANTOR_CONFIG, system={"kind": "similar", "dim": 1,
                                          "ratios": [[1 / 3, 1 / 3], [0.2, 0.2]]},
                   measure={"p": [[0.75, 0.25], [0.6, 0.4]]}, q=[0.5, 1, 2, 3])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["theory", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "theory.csv").read_text().splitlines()[1:]]
        for row, want in zip(rows, (0.482563, 0.456176, 0.415033, 0.387667), strict=True):
            assert row[2] == "closed-form"
            assert float(row[3]) == float(row[4]) == float(row[1])
            assert float(row[1]) == pytest.approx(want, rel=0, abs=1e-6)

    def test_unresolved_root_exits_with_message(self, tmp_path, capsys):
        # the affine rate's doubling passes its cap before it turns positive
        raw = dict(CANTOR_CONFIG, system={"kind": "affine",
                                          "matrices": [[[[0.9995, 0.0], [0.0, 0.9995]]] * 2]},
                   translations={"kind": "random-box", "low": [0, 0], "high": [1, 1]},
                   measure={"p": [[0.5, 0.5]]}, q=[2])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["theory", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap 512" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_slow_uniform_contraction_solves_past_the_old_cap(self, tmp_path, capsys):
        with open(os.path.join(REPO, "configs", "uniform.json")) as fh:
            raw = dict(json.load(fh), q=[2])
        raw["system"] = dict(raw["system"], ratios=[[0.9995, 0.9995]])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["theory", "--config", str(path), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "theory.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(np.log(2) / -np.log(0.9995), rel=1e-12, abs=0)

    @pytest.mark.parametrize("command, option", [("sample", "--seed"), ("compare", "--tolerance")])
    def test_negative_override_exits_with_message(self, tmp_path, capsys, command, option):
        cfg = self._write_config(tmp_path)
        assert cli_main([command, "--config", cfg, option, "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_options_replace_their_file_fields_before_the_one_validation(self, tmp_path,
                                                                        capsys):
        # each field is refused in the file, and each option replaces it unjudged
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, q=[-1], seed=-1, tolerance=-1)))
        args = argparse.Namespace(config=str(path), seed=4, q="2", tolerance=0.1)
        with mock.patch.object(ExperimentConfig, "from_dict",
                               wraps=ExperimentConfig.from_dict) as judged:
            config = cli._load_config(args)
        assert judged.call_count == 1
        assert (config.q_values, config.seed, config.tolerance) == ((2.0,), 4, 0.1)
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(path), "--q", "2", "--seed", "4",
                         "--tolerance", "0.1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("q=2: theory=")
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("command, q", [("theory", "-1"), ("compare", "0,-1")])
    def test_invalid_q_override_exits_with_message(self, tmp_path, capsys, command, q):
        cfg = self._write_config(tmp_path)
        assert cli_main([command, "--config", cfg, "--q", q, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "report.csv").exists()

    def test_too_few_scales_exits_with_message(self, tmp_path, capsys):
        # one point occupies one cell at every scale, so no scale is usable
        points = tmp_path / "points.csv"
        points.write_text("0.5,1.0\n")
        assert cli_main(["estimate", str(points), "--q", "2", "--scales", "4:10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("0.5\n0.25\n", "at least one coordinate and a weight"),
        ("0.1,0.2\n0.3,0.2\n", "weights sum to 0.4"),
        ("0.1,0.5\nnan,0.5\n", "row 2 holds a non-finite value"),
        ("0.1,1.5\n0.9,-0.5\n", "row 2 has negative weight -0.5"),
        (None, "not found"),
    ], ids=["one-column", "weight-sum", "nan-row", "negative-weight", "missing"])
    def test_malformed_sample_exits_with_message(self, tmp_path, capsys, text, message):
        points = tmp_path / "points.csv"
        if text is not None:
            points.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["estimate", str(points), "--q", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not out.exists()

    def test_estimate_q_whose_moment_sums_underflow_exits_with_message(self, tmp_path,
                                                                        capsys):
        # every cell's mass**3000 is below the smallest float at scales 2**-4..2**-10
        cfg = self._write_config(tmp_path)
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli_main(["estimate", str(tmp_path / "points.csv"), "--q", "2,3000",
                         "--scales", "4:10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q=3000: need at least 4 usable scales, have 0\n"
        assert not out.exists()

    def test_repeated_config_scales_exit_with_message(self, tmp_path, capsys):
        # base 1 turns every exponent into the same size 1.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, samples=2000,
                                        scales={"base": 1, "min_exp": 4, "max_exp": 12})))
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than once" in err
        assert not (tmp_path / "report.csv").exists()

    def test_repeated_estimate_scales_exit_with_message(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("0.25,0.5\n0.75,0.5\n")
        assert cli_main(["estimate", str(points), "--q", "2", "--scales",
                         "0.25,0.25,0.125,0.0625,0.03125,0.015625"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than once" in err

    def test_scales_within_a_relative_1e9_exit_with_message(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        rng = np.random.default_rng(3)
        write_sample_rows(points, rng.random((2000, 1)), np.full(2000, 1 / 2000))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["estimate", str(points), "--q", "2", "--scales",
                             "0.0625,0.03125,0.015625,0.0078125,0.00390625,"
                             "0.003906250000000001", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: scale size 0.00390625 appears more than once")
        assert not out.exists()

    def test_q_override_file_q_and_estimate_q_share_one_message(self, tmp_path, capsys):
        cfg = os.path.join(REPO, "configs", "cantor.json")
        with open(cfg) as fh:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(dict(json.load(fh), q=[-1])))
        points = tmp_path / "points.csv"
        points.write_text("0.25,0.5\n0.75,0.5\n")
        out = tmp_path / "out"
        errs = []
        for argv in (["theory", "--config", cfg, "--q", "-1"],
                     ["theory", "--config", str(bad)],
                     ["estimate", str(points), "--q", "-1"]):
            assert cli_main(argv + ["--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["config error: q must be one or more positive finite numbers, "
                        "got -1.0\n"] * 3
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["theory", "--q", "a"],
        ["compare", "--q", "1,,x"],
        ["estimate", "--q", "a"],
        ["estimate", "--q", "0"],
        ["estimate", "--q", "2,-1"],
        ["estimate", "--scales", "x"],
        ["estimate", "--scales", "4:x"],
        ["estimate", "--scales", "0.5,-0.25"],
        ["theory", "--q", "inf"],
        ["compare", "--q", "2,inf"],
        ["estimate", "--q", "inf"],
        ["estimate", "--q", "nan"],
    ], ids=["theory-q", "compare-q", "estimate-q", "estimate-q-zero",
            "estimate-q-negative", "estimate-scales", "estimate-scales-range",
            "estimate-scales-negative", "theory-q-inf", "compare-q-inf", "estimate-q-inf",
            "estimate-q-nan"])
    def test_unparsable_lists_exit_with_config_error(self, tmp_path, capsys, argv):
        if argv[0] == "estimate":
            points = tmp_path / "points.csv"
            points.write_text("0.25,0.5\n0.75,0.5\n")
            argv = ["estimate", str(points)] + argv[1:]
        else:
            argv = argv[:1] + ["--config", self._write_config(tmp_path),
                               "--out", str(tmp_path)] + argv[1:]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["theory", "compare"])
    @pytest.mark.parametrize("scales, message", [
        ([0.25, 0.125, 0.0625, float("nan")], "scales must be finite positive sizes, got nan"),
        ([0.25, 0.125, 0.0625, float("inf")], "scales must be finite positive sizes, got inf"),
        ({"base": float("nan"), "min_exp": 4, "max_exp": 10},
         "scales.base must be finite and positive, got nan"),
    ], ids=["nan-size", "inf-size", "nan-base"])
    def test_non_finite_config_scales_exit_with_message(self, tmp_path, capsys, command,
                                                        scales, message):
        # compare used to end in a ValueError or OverflowError traceback
        # after theory, which does not read the scales, had exited 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, samples=2000, scales=scales)))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("scales, bad", [("inf,0.25,0.125,0.0625", "inf"),
                                             ("0.25,nan,0.125", "nan")])
    def test_non_finite_estimate_scales_exit_with_message(self, tmp_path, capsys, scales, bad):
        points = tmp_path / "points.csv"
        points.write_text("0.25,0.5\n0.75,0.5\n")
        assert cli_main(["estimate", str(points), "--q", "2", "--scales", scales]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --scales must be finite positive sizes, got {bad}\n"

    @pytest.mark.parametrize("excess, accepted", [(0.9e-12, True), (1.1e-12, False)],
                             ids=["inside", "outside"])
    def test_weight_sum_tolerance_verdict_is_shared(self, tmp_path, capsys, excess, accepted):
        # two blocks of weights 1/n, exact for n a power of two, with the excess
        # on the last row; the exact total is 1 + excess within 2**-66
        n = 2 * systems._CSV_BLOCK_ROWS
        weights = np.full(n, 1.0 / n)
        weights[-1] += excess
        xs = np.random.default_rng(5).random(n)
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{x!r},{w!r}\n" for x, w in zip(xs.tolist(), weights.tolist())))
        argv = ["estimate", str(path), "--q", "2", "--scales", "2:8"]
        if accepted:
            assert len(load_sample_csv(path)) == n
            AttractorSample(points=xs, weights=weights)
            assert cli_main(argv) == 0
        else:
            with pytest.raises(SampleError, match="weights sum to 1.0000000000011"):
                load_sample_csv(path)
            with pytest.raises(ValueError, match="weights sum to 1.0000000000011"):
                AttractorSample(points=xs, weights=weights)
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "weights sum to 1.0000000000011" in captured.err

    def test_estimate_output_does_not_depend_on_the_read_block(self, tmp_path, capsys):
        # 2-D affine points with jittered offsets, read a line at a time, 7
        # lines at a time, and in the default blocks
        with open(os.path.join(REPO, "configs", "affine_finite_gamma.json")) as fh:
            raw = dict(json.load(fh), samples=3000, depth=None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = tmp_path / "out"
        outputs = set()
        for block_rows in (1, 7, systems._CSV_BLOCK_ROWS):
            capsys.readouterr()
            with mock.patch.object(systems, "_CSV_BLOCK_ROWS", block_rows):
                assert cli_main(["estimate", str(tmp_path / "points.csv"), "--q",
                                 "0.5,1,2,3", "--scales", "3:9", "--out", str(out)]) == 0
            outputs.add((capsys.readouterr().out, (out / "spectrum.csv").read_bytes(),
                         (out / "fits.csv").read_bytes()))
        assert len(outputs) == 1

    def test_estimate_memory_does_not_grow_with_the_rows(self, tmp_path, capsys):
        # at most 1,000 distinct points, so the cells stay bounded; holding the
        # sample, the 2e5-row peak was 4.2 times the 5e4-row one
        rng = np.random.default_rng(0)
        distinct = rng.random((1000, 1))
        peaks = []
        for n in (50_000, 200_000):
            path = tmp_path / f"points-{n}.csv"
            save_sample_csv(AttractorSample(points=distinct[rng.integers(0, 1000, n)],
                                            weights=np.full(n, 1.0 / n)), path)
            tracemalloc.start()
            try:
                assert cli_main(["estimate", str(path), "--q", "2", "--scales", "2:8"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_estimate_scale_too_fine_names_the_row_in_the_file(self, tmp_path, capsys):
        # at 2**-70 a coordinate past 2**-9 is beyond 2**61 cells; the far row
        # is in the second read block, and a comment and a blank line precede it
        n = systems._CSV_BLOCK_ROWS + 4
        xs = np.full(n, 1e-3)
        xs[systems._CSV_BLOCK_ROWS + 2] = 0.5
        path = tmp_path / "points.csv"
        path.write_text("# x,w\n\n" + "".join(f"{x!r},{1 / n!r}\n" for x in xs.tolist()))
        assert cli_main(["estimate", str(path), "--q", "2", "--scales", "4:70"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: scale {2.0**-70!r} is too fine: row "
                                f"{systems._CSV_BLOCK_ROWS + 3} [0.5] lies beyond 2**61 "
                                f"cells of that side\n")

    def test_compare_scale_too_fine_exits_with_message(self, tmp_path, capsys):
        # the Cantor points lie within R = (2/3) / (1 - 1/3), about 1, of the origin
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CANTOR_CONFIG, samples=2000,
                                        scales={"base": 2, "min_exp": 4, "max_exp": 70})))
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: scale {2.0**-70!r} is too fine: sampled points may lie up to "
            f"{(2 / 3) / (1 - 1 / 3)!r} from the origin, beyond 2**61 cells of that side\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_exp, refused", [(60, False), (61, True), (70, True)])
    def test_compare_refuses_a_scale_too_fine_before_any_solve(self, tmp_path, capsys,
                                                               monkeypatch, max_exp, refused):
        # the points lie within R = (0.65 + 0.35) / (1 - 0.45) = 1.82 of the
        # origin; R / 2**-61 is past 2**61 cells, though no point need be
        with open(os.path.join(REPO, "configs", "affine_finite_gamma.json")) as fh:
            raw = dict(json.load(fh), samples=1000,
                       scales={"base": 2, "min_exp": 4, "max_exp": max_exp})
        config = ExperimentConfig.from_dict(raw)
        system = build_system(config)
        radius = build_scheme(config, system).sup_norm() / (1.0 - system.contraction_bound)
        assert radius == pytest.approx(1.0 / 0.55, rel=1e-15)

        def unsolved(*args):
            raise AssertionError("a theory solve ran")

        monkeypatch.setattr(harness, "theoretical_exponents", unsolved)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        if not refused:
            with pytest.raises(AssertionError, match="a theory solve ran"):
                cli_main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
            return
        assert cli_main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: scale {2.0**-max_exp!r} is too fine: sampled points may lie up to "
            f"{radius!r} from the origin, beyond 2**61 cells of that side\n")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("overrides, line", [
        ({"scales": {"base": 2, "min_exp": 4, "max_exp": 70}},
         "scale 8.470329472543003e-22 is too fine: row 1 [0.02469303069086567]"),
        ({"depth": 10, "scales": FAR_SCALES},
         "scale 4.3324718812520757e-19 is too fine: row 999929 [0.9990346999949193]"),
        ({"scales": FAR_SCALES},
         "scale 4.3324718812520757e-19 is too fine: row 17210 [0.9996443838078118]"),
    ], ids=["max_exp-70", "word-table", "per-row"])
    def test_streamed_sample_names_the_first_far_row(self, overrides, line):
        # compare refuses these scales before it samples; the binning of the
        # sample it would stream still names the first far row. At depth 10
        # the sample is word counts, and the far row is named in the word
        # order of points.csv: 1 + the counts of the earlier words; deeper,
        # the first far row lies in the second chunk
        with open(os.path.join(REPO, "configs", "cantor.json")) as fh:
            raw = dict(json.load(fh), **overrides)
        assert _streamed_binning_error(ExperimentConfig.from_dict(raw)) == (
            f"{line} lies beyond 2**61 cells of that side")

    def test_compare_on_cantor_bins_each_drawn_word_once(self, tmp_path, capsys, monkeypatch):
        fed = []
        add = MeshAccumulator.add

        def rows(self, points, weights):
            fed.append((len(points), float(np.sum(weights))))
            return add(self, points, weights)

        monkeypatch.setattr(MeshAccumulator, "add", rows)
        cfg = os.path.join(REPO, "configs", "cantor.json")
        assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        # the depth-10 tree's 1,024 words fit the word table, and the dyadic
        # scales have one base: one call bins each drawn word once, with the
        # mass of its rows
        [(binned, mass)] = fed
        assert binned <= 2**10 and mass == pytest.approx(1.0, abs=1e-12)

    def test_sample_bytes_match_the_per_row_writer(self, tmp_path, capsys):
        # 20,000 rows, a full chunk and a short one, from the word table of
        # the depth-10 tree
        with open(os.path.join(REPO, "configs", "cantor.json")) as fh:
            raw = dict(json.load(fh), samples=20_000)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        config = ExperimentConfig.from_dict(raw)
        system, measure = build_system_and_measure(config)
        scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
        sample = sample_measure(system, scheme, measure, count=config.samples, seed=config.seed,
                                target_resolution=min(config.scales))
        assert sample.meta["depth"] == 10
        write_sample_rows(tmp_path / "want.csv", sample.points, sample.weights)
        assert cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_affine_sample_bytes_match_the_per_row_writer(self, tmp_path, capsys):
        # 40,000 rows of 2-D points with jittered offsets: the depth-14 tree
        # is drawn row by row, in two full sampling chunks and a short one
        with open(os.path.join(REPO, "configs", "affine_finite_gamma.json")) as fh:
            raw = dict(json.load(fh), samples=40_000)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        config = ExperimentConfig.from_dict(raw)
        system, measure = build_system_and_measure(config)
        scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
        meta, blocks = _sample_stream(system, scheme, measure, count=config.samples,
                                      depth=config.depth, seed=config.seed,
                                      target_resolution=min(config.scales))
        assert meta["depth"] == 14
        chunk = systems._SAMPLE_CHUNK_ROWS
        assert [(counts, len(w)) for _, _, counts, w in blocks] == [
            (None, chunk), (None, chunk), (None, 40_000 - 2 * chunk)]
        sample = sample_measure(system, scheme, measure, count=config.samples, seed=config.seed,
                                target_resolution=min(config.scales))
        write_sample_rows(tmp_path / "want.csv", sample.points, sample.weights)
        assert cli_main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def _counted_cantor(self, tmp_path, **overrides):
        # cantor.json at 1e5 points: the depth-10 tree's 1,024 words fit the
        # word table, so compare bins word counts and sample writes each
        # drawn word's row as many times as it was drawn
        with open(os.path.join(REPO, "configs", "cantor.json")) as fh:
            raw = dict(json.load(fh), samples=100_000, **overrides)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return str(cfg), ExperimentConfig.from_dict(raw)

    def test_sample_then_estimate_gives_the_cells_and_fits_of_compare(self, tmp_path, capsys,
                                                                       monkeypatch):
        cfg, config = self._counted_cantor(tmp_path)
        spectra = []
        stream = harness._stream_spectrum

        def kept(*args):
            spectra.append(stream(*args))
            return spectra[-1]

        monkeypatch.setattr(harness, "_stream_spectrum", kept)
        assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "compare")]) == 0
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert cli_main(["estimate", str(tmp_path / "points.csv"),
                         "--q", ",".join(map(repr, config.q_values)),
                         "--scales", ",".join(map(repr, config.scales)),
                         "--out", str(tmp_path / "estimate")]) == 0
        [spectrum] = spectra
        with open(tmp_path / "estimate" / "spectrum.csv") as fh:
            sums = [(float(row["q"]), float(row["r"]), int(row["cells"]))
                    for row in csv.DictReader(fh)]
        with open(tmp_path / "estimate" / "fits.csv") as fh:
            fits = [float(row["dimension"]) for row in csv.DictReader(fh)]
        assert sums == [(rec.q, rec.r, rec.cells) for records, _ in spectrum for rec in records]
        assert len(sums) == len(config.q_values) * len(config.scales)
        reported = parse_report_csv(tmp_path / "compare" / "report.csv")
        assert [row.d_empirical for row in reported] == [est.dimension for _, est in spectrum]
        for fit, (_, est) in zip(fits, spectrum, strict=True):
            assert abs(fit - est.dimension) <= 1e-12

    def test_streamed_sample_names_the_far_row_of_its_file(self, tmp_path, capsys):
        cfg, config = self._counted_cantor(tmp_path, depth=10, scales=FAR_SCALES)
        compared = f"error: {_streamed_binning_error(config)}\n"
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli_main(["estimate", str(tmp_path / "points.csv"),
                         "--scales", ",".join(map(repr, FAR_SCALES))]) == 2
        estimated = capsys.readouterr().err
        assert re.fullmatch(r"error: scale \S+ is too fine: row \d+ \[\S+\] lies beyond "
                            r"2\*\*61 cells of that side\n", compared)
        assert compared == estimated

    def test_empty_scale_range_exits_with_message(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        points = str(tmp_path / "points.csv")
        capsys.readouterr()
        assert cli_main(["estimate", points, "--q", "2", "--scales", "12:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def two_level_rows():
    report = run_experiment(ExperimentConfig.from_file(
        os.path.join(REPO, "configs", "two_level.json")))
    return {row.q: row for row in report.rows}


class TestTwoLevelConfig:
    """The committed nonautonomous table: two similarity levels that alternate."""

    def test_theory_is_the_period_root(self, two_level_rows):
        assert sorted(two_level_rows) == sorted(TWO_LEVEL_ROOTS)
        for q, root in TWO_LEVEL_ROOTS.items():
            row = two_level_rows[q]
            assert row.d_theory == pytest.approx(root, abs=1e-6)
            assert row.method == "closed-form[equality:similar+ssc]"

    @pytest.mark.parametrize("q", [
        pytest.param(0.5, marks=pytest.mark.xfail(strict=True, reason=WINDOW_RULE)),
        pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason=WINDOW_RULE)),
        2.0,
        3.0,
    ])
    def test_row_passes(self, two_level_rows, q):
        assert two_level_rows[q].passed


class TestSpectraRelease:
    """The q loop of ``compare`` and ``qdims theory`` frees the affine spectra its q share."""

    @staticmethod
    def affine_config(tmp_path, **changes):
        with open(os.path.join(REPO, "configs", "affine_finite_gamma.json")) as fh:
            raw = {**json.load(fh), "samples": 2000, "realizations": 1, "q": [1.5, 2],
                   "scales": {"base": 2, "min_exp": 2, "max_exp": 6}, **changes}
        path = tmp_path / "affine.json"
        path.write_text(json.dumps(raw))
        return raw, str(path)

    def test_compare_and_theory_keep_no_spectra(self, tmp_path, capsys, monkeypatch,
                                                spectra_builds):
        raw, path = self.affine_config(tmp_path)
        system, measure = build_system_and_measure(ExperimentConfig.from_dict(raw))
        solve, kept_on_entry = harness.theoretical_exponents, []

        def solve_and_record(*args):
            kept_on_entry.append(theory._kept_spectra is not None)
            return solve(*args)

        monkeypatch.setattr(harness, "theoretical_exponents", solve_and_record)
        for run in (lambda: run_experiment(ExperimentConfig.from_dict(raw)),
                    lambda: cli_main(["theory", "--config", path])):
            # spectra a direct solve kept are freed before the q loop starts
            solve(system, measure, 2.0)
            run()
            assert theory._kept_spectra is None
        assert kept_on_entry == [False, True, False, True]
        assert len(spectra_builds) == 4

    def test_a_failing_q_still_frees_the_spectra(self, tmp_path, capsys, spectra_builds):
        # q = 2 builds the spectra, then q = 0.5 is refused on an affine table
        _, path = self.affine_config(tmp_path, q=[2, 0.5])
        assert cli_main(["theory", "--config", path]) == 2
        assert len(spectra_builds) == 1 and theory._kept_spectra is None

    def test_a_theory_levels_pass_builds_once(self, tmp_path, capsys, spectra_builds):
        # two affine solves, then qdims theory on a similarity config, as
        # the benchmark's theory_levels pass runs them
        raw, _ = self.affine_config(tmp_path)
        system, measure = build_system_and_measure(ExperimentConfig.from_dict(raw))
        similar = tmp_path / "similar.json"
        similar.write_text(json.dumps(CANTOR_CONFIG))
        for passes in (1, 2):
            for q in (1.5, 3.0):
                theoretical_exponents(system, measure, q)
            assert theory._kept_spectra is not None
            assert cli_main(["theory", "--config", str(similar)]) == 0
            assert len(spectra_builds) == passes and theory._kept_spectra is None


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_bench_pairs_summary(self):
        bench_pairs = _script("bench_pairs")
        walls = [(0.0072, 0.0056), (0.0070, 0.0057), (0.0075, 0.0075), (0.0069, 0.0071),
                 (0.0074, 0.0055)]
        parent = [dict.fromkeys(bench_pairs.METRICS, 1.0) | {"wall_s": a} for a, _ in walls]
        change = [dict.fromkeys(bench_pairs.METRICS, 1.0) | {"wall_s": b} for _, b in walls]
        table = bench_pairs.summarize(parent, change)
        assert list(table) == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
        # quartiles of 0.0069, 0.0070, 0.0072, 0.0074, 0.0075 by the exclusive method
        assert table["wall_s"] == {"parent_median": 0.0072, "change_median": 0.0057,
                                   "parent_iqr": pytest.approx(0.00745 - 0.00695),
                                   "wins": 3, "pairs": 5}
        # equal runs are ties, which count for neither side
        assert table["cpu_s"] == {"parent_median": 1.0, "change_median": 1.0,
                                  "parent_iqr": 0.0, "wins": 0, "pairs": 5}

    @staticmethod
    def stub_checkouts(tmp_path, log):
        """Stand-in checkouts whose perfbench/run.py logs its side and workload
        and prints the result line stored beside it."""
        for side in ("parent", "change"):
            bench = tmp_path / side / "perfbench"
            bench.mkdir(parents=True)
            (bench / "run.py").write_text(
                "import sys\n"
                "workload = sys.argv[sys.argv.index('--workload') + 1]\n"
                f"open({str(log)!r}, 'a').write({side!r} + ':' + workload + ' ')\n"
                f"print(open({str(bench / 'result.json')!r}).read())\n")

    @staticmethod
    def run_pairs(tmp_path, workload, results):
        """bench_pairs on the stub checkouts, ``results[side]`` the line each prints."""
        for side, result in results.items():
            (tmp_path / side / "perfbench" / "result.json").write_text(json.dumps(result))
        (tmp_path / "order.log").write_text("")
        return subprocess.run(
            [sys.executable, os.path.join(REPO, "scripts", "bench_pairs.py"),
             str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", workload,
             "--pairs", "3", "--seconds", "1"],
            capture_output=True, text=True, timeout=60)

    @staticmethod
    def stub_result(correct=True, wall=1.0):
        metrics = {name: {"value": 1.0, "unit": "s"} for name in _script("bench_pairs").METRICS}
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        return {"correct": correct, "attempted": 4, "failed": int(not correct),
                "metrics": metrics}

    def test_bench_pairs_alternates_and_stops_on_a_failed_check(self, tmp_path):
        log = tmp_path / "order.log"
        self.stub_checkouts(tmp_path, log)

        def run(change_correct):
            return self.run_pairs(tmp_path, "w", {"parent": self.stub_result(),
                                                  "change": self.stub_result(change_correct)})

        proc = run(change_correct=True)
        assert proc.returncode == 0, proc.stderr
        assert log.read_text().split() == ["parent:w", "change:w", "change:w", "parent:w",
                                           "parent:w", "change:w"]
        assert proc.stdout.splitlines()[-1].split() == ["peak_rss_mb", "1", "1", "0", "0",
                                                        "of", "3"]
        proc = run(change_correct=False)
        assert proc.returncode == 1 and "1 of 4 checks failed" in proc.stderr
        assert proc.stdout == "" and log.read_text().split() == ["parent:w", "change:w"]

    def test_bench_pairs_all_runs_every_workload_in_one_call_per_side(self, tmp_path):
        # run.py --workload all prints one object keyed by workload
        log = tmp_path / "order.log"
        self.stub_checkouts(tmp_path, log)
        parent = {"a": self.stub_result(wall=2.0), "b": self.stub_result(wall=3.0)}
        change = {"a": self.stub_result(wall=1.5), "b": self.stub_result(wall=3.5)}
        proc = self.run_pairs(tmp_path, "all", {"parent": parent, "change": change})
        assert proc.returncode == 0, proc.stderr
        assert log.read_text().split() == ["parent:all", "change:all", "change:all",
                                           "parent:all", "parent:all", "change:all"]
        lines = proc.stdout.splitlines()
        assert [line.split()[:4] for line in lines[:2]] == [
            ["pair", "0", "(parent", "first)"]] * 2
        assert [line.split()[4] for line in lines[:6]] == ["a:", "b:"] * 3
        # one table per workload: a name line, a header and one row per metric
        tables = lines[6:]
        assert len(tables) == 2 * (2 + 4) and (tables[0], tables[6]) == ("a:", "b:")
        assert tables[3].split() == ["wall_s", "2", "1.5", "0", "3", "of", "3"]
        assert tables[9].split() == ["wall_s", "3", "3.5", "0", "0", "of", "3"]
        # a failed check on one workload names it
        change["b"] = self.stub_result(correct=False)
        proc = self.run_pairs(tmp_path, "all", {"parent": parent, "change": change})
        assert proc.returncode == 1 and "b: 1 of 4 checks failed" in proc.stderr

    def test_report_digests_name_each_differing_report(self):
        differences = _script("report_digests").differences
        want = {"cantor": {"report.csv": "c1", "report.txt": "t1"},
                "uniform": {"report.csv": "c2", "report.txt": "t2"}}
        assert differences(want, want) == []
        # a changed digest, a config only one side has, and a missing report
        got = {"cantor": {"report.csv": "c1", "report.txt": "t9"},
               "two_level": {"report.csv": "c3", "report.txt": "t3"},
               "uniform": {"report.csv": "c2"}}
        assert differences(want, got) == ["cantor/report.txt", "two_level/report.csv",
                                          "two_level/report.txt", "uniform/report.txt"]

    def test_report_digests_check_exits_nonzero_on_a_difference(self, capsys, monkeypatch):
        # stand-in digests: no compare or sample runs
        script = _script("report_digests")
        with open(os.path.join(REPO, "scripts", "report_digests.json")) as fh:
            stored = json.load(fh)
        names = sorted(name[:-5] for name in os.listdir(os.path.join(REPO, "configs"))
                       if name.endswith(".json"))
        assert sorted(stored) == names
        assert all(sorted(files) == ["points.csv", "report.csv", "report.txt"]
                   for files in stored.values())
        digests = {name: dict(files) for name, files in stored.items()}
        monkeypatch.setattr(script, "config_digests",
                            lambda path: digests[os.path.basename(path)[:-5]])
        path = os.path.join(REPO, "scripts", "report_digests.json")
        assert script.main(["--check", path]) == 0
        assert json.loads(capsys.readouterr().out) == stored
        digests["cantor"]["report.txt"] = "0" * 64
        assert script.main(["--check", path]) == 1
        assert capsys.readouterr().err == "differs: cantor/report.txt\n"

    def test_stored_unreached_names_are_src_functions(self):
        with open(os.path.join(REPO, "scripts", "reach.json")) as fh:
            stored = json.load(fh)
        assert stored == sorted(set(stored))
        assert set(stored) <= set(_script("reach").functions().values())

    def test_reach_check_exits_nonzero_on_a_new_unreached_name(self, capsys, monkeypatch):
        # stand-in names: no entry point runs
        script = _script("reach")
        path = os.path.join(REPO, "scripts", "reach.json")
        with open(path) as fh:
            stored = json.load(fh)
        names = list(stored)
        monkeypatch.setattr(script, "unreached", lambda: names)
        assert script.main(["--check", path]) == 0
        assert json.loads(capsys.readouterr().out) == stored
        names.append("qdims.empirical:fit_dimension")
        assert script.main(["--check", path]) == 1
        assert capsys.readouterr().err == "unreached: qdims.empirical:fit_dimension\n"

    # the affine configs (about 1.5 s and 4.5 s) are checked by the script's --check run
    @pytest.mark.parametrize("name", ["cantor", "uniform", "two_level"])
    def test_compare_reports_match_the_stored_digests(self, name):
        script = _script("report_digests")
        with open(os.path.join(REPO, "scripts", "report_digests.json")) as fh:
            stored = json.load(fh)[name]
        assert script.config_digests(os.path.join(REPO, "configs", f"{name}.json")) == stored

    # a smoke run: an API change that breaks the script fails here
    def test_overlap_upper_bound_runs(self, tmp_path):
        script = os.path.join(REPO, "scripts", "overlap_upper_bound.py")
        proc = subprocess.run([sys.executable, script, "--trials", "1", "--samples", "20000"],
                              capture_output=True, text=True, timeout=300, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and lines[0].startswith("trial 0: ")
        assert lines[1].startswith("worst excess over the clamped exponent: ")
        assert list(tmp_path.iterdir()) == []
