"""Generalized q-dimensions on level-varying iterated function systems.

The package splits into:

- ``codespace``: level schedules, branching profiles, Bernoulli measures and
  the scale cut-set enumerator over the address tree
- ``systems``: similarity/affine systems, translation schemes, sampling,
  separation certificates
- ``singular``: log singular values of matrix stacks and the singular value
  function
- ``theory``: critical exponents of moment sums (an exact period root and
  a cut-set solver for similarity tables, one level-sum solver for affine
  tables)
- ``empirical``: mesh-cube moment sums and log-log dimension fits
- ``harness``/``cli``: experiment configs, comparison reports, subcommands
"""

from .codespace import (
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
)
from .empirical import (
    MeshAccumulator,
    SpectrumEstimate,
    ball_moment_integral,
    estimate_dimension,
    estimate_spectrum,
    fit_dimension,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ReportRow,
    emit_report,
    run_experiment,
)
from .systems import (
    AffineSystem,
    AttractorSample,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    check_separation,
    sample_measure,
)
from .theory import (
    CriticalExponents,
    affine_series_dimension,
    clamp_dimension,
    cutset_dimension,
    product_dimension,
    stationary_affine_dimension,
    stationary_dimension,
)

__version__ = "0.1.0"
