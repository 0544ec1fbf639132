import json
import os

import numpy as np
import pytest

from qdims.cli import main as cli_main
from qdims.codespace import BernoulliMeasure
from qdims.errors import ConfigError
from qdims.harness import (
    REPORT_HEADER,
    ComparisonReport,
    ExperimentConfig,
    ReportRow,
    build_scheme,
    build_system,
    claim_for,
    emit_report,
    parse_report_csv,
    render_report_csv,
    run_experiment,
    theoretical_exponents,
)
from qdims.systems import (
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
)

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
    ], ids=["samples", "realizations", "empty-scales", "zero-scale", "empty-scale-range"])
    def test_degenerate_sizes_rejected(self, override):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(CANTOR_CONFIG, **override))

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
        assert scheme.translation((2,))[0] == pytest.approx(2 / 3)


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
        assert ce.method == "product-limit"

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

    def test_sample_then_estimate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        points = os.path.join(str(tmp_path), "points.csv")
        assert cli_main(["estimate", points, "--q", "2", "--scales", "4:10",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "spectrum.csv").exists()
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header == "q,r,sum,cells"

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path),
                         "--q", "2"]) == 0
        rows = parse_report_csv(tmp_path / "report.csv")
        assert len(rows) == 1 and rows[0].q == 2.0

    def test_check_separation_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["check-separation", "--config", cfg, "--depth", "4",
                         "--kind", "gsc"]) == 0
        out = capsys.readouterr().out
        assert "holds_at_depth=true" in out
        assert "0.333333" in out

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

    def test_too_few_scales_exits_with_message(self, tmp_path, capsys):
        # one point occupies one cell at every scale, so no scale is usable
        points = tmp_path / "points.csv"
        points.write_text("0.5,1.0\n")
        assert cli_main(["estimate", str(points), "--q", "2", "--scales", "4:10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
