"""rmtlab: a spectral laboratory for block random matrices and graph energy."""

__version__ = "0.1.0"

from .ensemble import (EnsembleError, EnsembleSpec, EntryLaw, PartitionSpec,
                       make_partition, sample_matrix, scale_matrix,
                       singleton_partition)
from .laws import (catalan, limit_moments, semicircle_cdf,
                   semicircle_density, semicircle_moment)
from .spectral import (eigenvalues_sym, empirical_moment, esd, ks_distance,
                       singular_values, stieltjes_empirical)

__all__ = [
    "__version__",
    "EnsembleError", "EnsembleSpec", "EntryLaw", "PartitionSpec",
    "make_partition", "sample_matrix", "scale_matrix", "singleton_partition",
    "catalan", "limit_moments", "semicircle_cdf", "semicircle_density",
    "semicircle_moment",
    "eigenvalues_sym", "empirical_moment", "esd", "ks_distance",
    "singular_values", "stieltjes_empirical",
]
