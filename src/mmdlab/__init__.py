"""Kernel mean embeddings and MMDs over signed discrete measures.

The package computes embedding distances for finitely supported signed
measures, builds the kernel algebra (shift, scale by a field, recenter at a
probability measure), generates diffusing and mass-escape sequences, and
probes sequences for convergence in four topologies.  See the README for a
tour and ``mmdlab.cli`` for the experiment runner.
"""

from .constructions import (
    ExclusionRegion,
    SearchDomain,
    diffusing_sequence,
    dirac_null_kernel,
    identity_residuals,
    verify_diffusing,
)
from .diagnostics import (
    TestFunction,
    Thresholds,
    Verdicts,
    bump,
    compute_verdicts,
    integrate,
    kme_probe,
    probe_sequence,
)
from .embedding import inner, kme_eval, mmd, mmd_detail, mmd_oracle, norm
from .errors import (
    DegenerateMeasureError,
    DimensionMismatchError,
    MeasureError,
    NotAWitnessError,
    ParameterError,
    SearchFailureError,
    UsageError,
)
from .kernels import (
    Kernel,
    ScalarField,
    c0_bump_at,
    c0_null_at,
    c0_probe,
    center_kernel,
    gaussian,
    laplacian,
    saturating_at,
    scale_kernel,
    shift_kernel,
)
from .measures import MeasureSequence, SignedDiscreteMeasure, dirac, mass_in_ball

__version__ = "0.1.0"

# what the README and the demos use, the error classes, and the types a
# caller passes into those functions; everything else is imported from
# its own module
__all__ = [
    "DegenerateMeasureError",
    "DimensionMismatchError",
    "ExclusionRegion",
    "Kernel",
    "MeasureError",
    "MeasureSequence",
    "NotAWitnessError",
    "ParameterError",
    "ScalarField",
    "SearchDomain",
    "SearchFailureError",
    "SignedDiscreteMeasure",
    "TestFunction",
    "Thresholds",
    "UsageError",
    "Verdicts",
    "bump",
    "c0_bump_at",
    "c0_null_at",
    "c0_probe",
    "center_kernel",
    "compute_verdicts",
    "diffusing_sequence",
    "dirac",
    "dirac_null_kernel",
    "gaussian",
    "identity_residuals",
    "inner",
    "integrate",
    "kme_eval",
    "kme_probe",
    "laplacian",
    "mass_in_ball",
    "mmd",
    "mmd_detail",
    "mmd_oracle",
    "norm",
    "probe_sequence",
    "saturating_at",
    "scale_kernel",
    "shift_kernel",
    "verify_diffusing",
]
