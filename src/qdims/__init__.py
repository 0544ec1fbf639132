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

The package namespace holds the names that the quick start, the acceptance
tests, the scripts and the benchmark reach as ``qdims.<name>``; everything
else is reached through its module.
"""

from .codespace import BernoulliMeasure
from .empirical import MeshAccumulator, estimate_spectrum
from .harness import ExperimentConfig
from .systems import (
    AffineSystem,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    check_separation,
    sample_measure,
)
from .theory import (
    affine_series_dimension,
    cutset_dimension,
    product_dimension,
    stationary_dimension,
)

__version__ = "0.1.0"
