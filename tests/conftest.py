import pytest

from qdims import theory


@pytest.fixture(autouse=True)
def _no_kept_spectra():
    """Start every test without affine level spectra that an earlier solve kept,
    so no test is served spectra another test built (under another
    ``_BLOCK_WORDS``, say) and no memory test counts them."""
    theory._release_level_spectra()


@pytest.fixture
def spectra_builds(monkeypatch):
    """``(depth, keep_from)`` of every ``_level_spectra`` build in the test."""
    builds, build = [], theory._level_spectra

    def counted(system, measure, depth, keep_from):
        builds.append((depth, keep_from))
        return build(system, measure, depth, keep_from)

    monkeypatch.setattr(theory, "_level_spectra", counted)
    return builds
