"""The public surface: module ``__all__`` lists, package re-exports, removed names."""

import argparse
import importlib
import inspect
import types
from pathlib import Path

import pytest

import qdims
from qdims import cli

MODULES = ["codespace", "empirical", "harness", "singular", "systems", "theory"]

# word-object twins and test-only wrappers that the package no longer carries;
# the per-word reference versions live in tests/oracles.py
REMOVED = {
    "codespace": ["scale_cut_set", "CutSet", "cylinder_mass", "is_prefix_free",
                  "common_prefix", "EMPTY_WORD", "COVER_TOL", "Word", "DEFAULT_MAX_DEPTH"],
    "empirical": ["moment_sum", "entropy_sum", "scale_records", "MASS_TOL",
                  "estimate_dimension", "ball_moment_integral", "BallMomentResult"],
    "theory": ["lq_spectrum", "stationary_affine_dimension"],
    "singular": ["within_envelope", "SingularSpectrum", "singular_values",
                 "singular_value_function", "word_product", "word_spectrum"],
    "systems": ["project_word"],
    "errors": ["InvalidWordError"],
}
REMOVED_MEMBERS = [
    ("codespace", "BranchingProfile", "validate_letters"),
    ("codespace", "BernoulliMeasure", "schedule"),
    ("codespace", "Word", "parent"),
    ("codespace", "Word", "extended"),
    ("codespace", "Word", "is_prefix_of"),
    ("theory", "CriticalExponents", "bracket_width"),
    ("systems", "SimilarSystem", "ratio_product"),
    ("empirical", "MeshAccumulator", "total_mass"),
    ("empirical", "MeshAccumulator", "from_points"),
    ("harness", "ExperimentConfig", "to_dict"),
]
# (module, function, parameter): the affine solver's one word bound is ENUMERATION_CAP,
# it enumerates every word, the cut-set solver's word bound is CUTSET_WORD_CAP and
# its grid is always the default one, and a report is always written as report.csv
# and report.txt
REMOVED_PARAMETERS = [
    ("theory", "affine_series_dimension", "level_cap"),
    ("theory", "affine_series_dimension", "sampling"),
    ("theory", "affine_series_dimension", "sample_size"),
    ("theory", "affine_series_dimension", "seed"),
    ("theory", "cutset_dimension", "max_words"),
    ("theory", "cutset_dimension", "r_grid"),
    ("systems", "check_separation", "budget"),
    ("harness", "emit_report", "stem"),
]
# what the package namespace re-exports: the names that README's quick start,
# the acceptance tests, the scripts and perfbench reach as qdims.<name>
EXPORTS = {
    "AffineSystem", "BernoulliMeasure", "ExperimentConfig", "ExplicitTranslations",
    "FiniteTranslationSet", "MeshAccumulator", "RandomBoxTranslations", "SimilarSystem",
    "affine_series_dimension", "check_separation", "cutset_dimension", "estimate_spectrum",
    "product_dimension", "sample_measure", "stationary_dimension",
}


def _module(name):
    return importlib.import_module(f"qdims.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = _module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_are_public_in_their_module():
    for name, obj in vars(qdims).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"qdims.{name} is not in {obj.__module__}.__all__"


def test_package_reexports_only_the_used_names():
    public = {name for name, obj in vars(qdims).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == EXPORTS


@pytest.mark.parametrize("module_name, name",
                         [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_are_gone(module_name, name):
    assert not hasattr(qdims, name)
    assert not hasattr(_module(module_name), name)


@pytest.mark.parametrize("module_name, owner, member", REMOVED_MEMBERS)
def test_removed_members_are_gone(module_name, owner, member):
    # a member of a removed class is gone with it
    assert not hasattr(getattr(_module(module_name), owner, None), member)


@pytest.mark.parametrize("module_name, function, parameter", REMOVED_PARAMETERS)
def test_removed_parameters_are_gone(module_name, function, parameter):
    fn = getattr(_module(module_name), function)
    assert parameter not in inspect.signature(fn).parameters


@pytest.mark.parametrize("scheme", ["ExplicitTranslations", "RandomBoxTranslations",
                                    "FiniteTranslationSet"])
def test_translation_schemes_share_one_protocol(scheme):
    cls = getattr(qdims, scheme)
    for member in ("kind", "randomized", "realize", "offsets", "sup_norm"):
        assert hasattr(cls, member), f"{scheme} lacks {member}"
    assert not hasattr(cls, "translation")


def test_q_one_threshold_has_one_owner():
    # the theory, the claim and the estimator switch to q = 1 at one threshold
    codespace = _module("codespace")
    for name in ("theory", "harness", "empirical"):
        assert _module(name).Q_ONE_TOL is codespace.Q_ONE_TOL


def test_depth_cap_is_a_constant():
    codespace = _module("codespace")
    for fn in (qdims.SimilarSystem, qdims.AffineSystem, qdims.BernoulliMeasure,
               codespace.BranchingProfile, codespace.BranchingProfile.from_sizes,
               codespace.scale_cut_set_masses):
        assert "max_depth" not in inspect.signature(fn).parameters, fn.__qualname__
    assert list(inspect.signature(codespace.BranchingProfile.matches).parameters) == [
        "self", "other"]
    profile = qdims.BernoulliMeasure([[0.5, 0.5]]).profile
    assert isinstance(profile, codespace.BranchingProfile) and not callable(profile)


def test_depth_cap_error_carries_depth_only():
    params = list(inspect.signature(qdims.errors.DepthCapError).parameters)
    assert params == ["message", "depth"]


def test_sample_error_is_a_value_error():
    # callers that caught the loader's ValueError keep working
    assert issubclass(qdims.errors.SampleError, ValueError)


def test_readme_quick_start_runs_as_written(capsys):
    # the block is read from README itself, so the package cannot drop a name it uses
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    d2, fit = namespace["d2"], namespace["fit"]
    assert str(d2).startswith("0.42781")
    assert capsys.readouterr().out == f"{d2} {fit.dimension}\n"
    assert abs(fit.dimension - d2) < 0.05


def test_readme_cli_synopsis_lists_each_subcommands_options():
    # the synopsis is read from README, so the parser and the docs cannot drift apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    listed = {}
    for line in block.splitlines():
        prog, command, *words = line.split()
        assert prog == "qdims"
        options = (word.lstrip("[") for word in words)
        listed[command] = {word for word in options if word.startswith("--")}
    [commands] = [action.choices for action in cli._parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    parsed = {name: {option for action in parser._actions for option in action.option_strings
                     if option not in ("-h", "--help")}
              for name, parser in commands.items()}
    assert parsed == listed
