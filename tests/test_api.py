"""The public surface: module ``__all__`` lists, package re-exports, removed names."""

import importlib
import inspect
import types

import pytest

import qdims

MODULES = ["codespace", "empirical", "harness", "singular", "systems", "theory"]

# word-object twins and test-only wrappers that the package no longer carries;
# the per-word reference versions live in tests/oracles.py
REMOVED = {
    "codespace": ["scale_cut_set", "CutSet", "cylinder_mass", "is_prefix_free",
                  "common_prefix", "EMPTY_WORD", "COVER_TOL", "Word", "DEFAULT_MAX_DEPTH"],
    "empirical": ["moment_sum", "entropy_sum", "scale_records", "MASS_TOL"],
    "theory": ["lq_spectrum"],
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
]


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


@pytest.mark.parametrize("module_name, name",
                         [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_are_gone(module_name, name):
    assert not hasattr(qdims, name)
    assert not hasattr(_module(module_name), name)


@pytest.mark.parametrize("module_name, owner, member", REMOVED_MEMBERS)
def test_removed_members_are_gone(module_name, owner, member):
    # a member of a removed class is gone with it
    assert not hasattr(getattr(_module(module_name), owner, None), member)


@pytest.mark.parametrize("scheme", ["ExplicitTranslations", "RandomBoxTranslations",
                                    "FiniteTranslationSet"])
def test_translation_schemes_share_one_protocol(scheme):
    cls = getattr(qdims, scheme)
    for member in ("kind", "randomized", "realize", "offsets", "sup_norm"):
        assert hasattr(cls, member), f"{scheme} lacks {member}"
    assert not hasattr(cls, "translation")


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
