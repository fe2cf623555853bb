"""Random exponential sums over stochastic processes, and the lattice-point
counts their even moments reduce to.

Subpackages by concern: exact process samplers (:mod:`.processes`), algebraic
norm evaluation (:mod:`.expsum`), exact and Monte Carlo moment expectations
(:mod:`.moments`), lattice counting (:mod:`.lattice`, with the shell counts
in :mod:`.shell`), inequality oracles (:mod:`.bounds`), majorant-ratio
optimization (:mod:`.majorant`), and the reproducible CLI (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .errors import COUNT_LIMIT, GuardError
from .expsum import (
    FrequencySpectrum,
    RepresentationTable,
    even_moment,
    even_norm_coeff,
    lp_norm_quadrature,
    representation_table,
    suggested_nodes,
)
from .moments import (
    ExperimentSpec,
    MomentEstimate,
    SlopeFit,
    TimeMap,
    coincidence_probability_poisson,
    exact_even_moment,
    exact_even_moment_iid,
    exact_even_moment_poisson,
    exact_even_moment_walk,
    exact_second_moment_poisson,
    mc_even_moment,
    mc_general_moment,
    slope_fit,
)
from .processes import (
    Pmf,
    ProcessPath,
    SeedSpec,
    TimeGrid,
    poisson_pmf,
    sample_poisson_path,
    sample_random_walk,
)

__all__ = [
    "COUNT_LIMIT",
    "ExperimentSpec",
    "FrequencySpectrum",
    "GuardError",
    "MomentEstimate",
    "Pmf",
    "ProcessPath",
    "RepresentationTable",
    "SeedSpec",
    "SlopeFit",
    "TimeGrid",
    "TimeMap",
    "coincidence_probability_poisson",
    "even_moment",
    "even_norm_coeff",
    "exact_even_moment",
    "exact_even_moment_iid",
    "exact_even_moment_poisson",
    "exact_even_moment_walk",
    "exact_second_moment_poisson",
    "lp_norm_quadrature",
    "mc_even_moment",
    "mc_general_moment",
    "poisson_pmf",
    "representation_table",
    "sample_poisson_path",
    "sample_random_walk",
    "slope_fit",
    "suggested_nodes",
    "__version__",
]
