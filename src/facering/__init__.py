"""Exact toolkit for face rings of simplicial complexes with singularities.

Classifies singular faces, realizes the finely graded module structure of
face-ring local cohomology, predicts the local cohomology of quotients by
generic linear forms, and cross-checks every closed formula against
independent brute-force linear algebra over Q or a prime field.
"""

from .complexes import SimplicialComplex, SizeLimitError
from .linalg import GF, QQ, FieldSpec, Matrix
from .cohomology import (
    induced_map,
    reduced_cohomology_dim,
    relative_cohomology,
    relative_cohomology_dim,
)
from .singularity import (
    NEG_INFINITY,
    cm_in_codim,
    is_buchsbaum,
    is_cm,
    is_cm_along,
    singularity_dimension,
)
from .local_cohomology import (
    GenericCoefficients,
    HilbertSeries,
    kernel_dim_bruteforce,
    kernel_dim_formula,
    lc_coarse_dim,
    lc_hilbert_series,
    make_generic,
)
from .quotient import (
    is_homologically_isolated,
    isolated_quotient_dims,
    predicts_finite_lc,
    quotient_lc_dim,
    vertex_cohomology_map,
)
from .artinian import ReductionHilbert, determinacy_probe, reduction_hilbert
from .squarefree import (
    SqfreeData,
    sqfree_data_of_face_ring,
    sqfree_hilbert,
    sqfree_lc_data,
    sqfree_quotient_hilbert,
    sqfree_quotient_lc,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "FieldSpec",
    "GenericCoefficients",
    "HilbertSeries",
    "Matrix",
    "NEG_INFINITY",
    "ReductionHilbert",
    "SimplicialComplex",
    "SizeLimitError",
    "SqfreeData",
    "cm_in_codim",
    "determinacy_probe",
    "induced_map",
    "is_buchsbaum",
    "is_cm",
    "is_cm_along",
    "is_homologically_isolated",
    "isolated_quotient_dims",
    "kernel_dim_bruteforce",
    "kernel_dim_formula",
    "lc_coarse_dim",
    "lc_hilbert_series",
    "make_generic",
    "predicts_finite_lc",
    "quotient_lc_dim",
    "reduced_cohomology_dim",
    "reduction_hilbert",
    "relative_cohomology",
    "relative_cohomology_dim",
    "singularity_dimension",
    "sqfree_data_of_face_ring",
    "sqfree_hilbert",
    "sqfree_lc_data",
    "sqfree_quotient_hilbert",
    "sqfree_quotient_lc",
    "vertex_cohomology_map",
]
