"""Weighted geometric means of positive definite matrices and their gyro algebra.

Public surface: the spectral kernel, the two weighted means with their
defining-equation residuals, distances on the cone, the order-inequality
checkers, three gyrovector-space models (cone, densities, Einstein/Mobius
ball with the Bloch correspondence), 2x2 closed forms, and the randomized
verification harness behind the ``gyromean`` CLI.

Importing the package loads the numerical core alone.  The names of the
campaign (``run_campaign``, ``CampaignConfig``, ...), of its sampler and of
the order checkers, listed in ``_LAZY``, load their module on first access
and are then ordinary attributes.
"""

# the one place the version is written: pyproject.toml reads it from here, and
# every campaign report records it
__version__ = "0.1.0"

from importlib import import_module as _import_module

from .kernel import (
    Loewner,
    SpectralDecomposition,
    congruence,
    eigh,
    expm,
    invm,
    is_positive_definite,
    loewner_compare,
    logm,
    matrix_function,
    min_eig,
    norm,
    polar_unitary,
    powm,
    sqrtm,
)
from .means import (
    block_psd_margin,
    geo_mean,
    karcher_residual,
    mean,
    mean_left_inverse,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from .metrics import DISTANCE_KINDS, distance, midpoint_deviation, sup_ratio
from .gyrocone import (
    cogyroline,
    cone_add,
    cone_neg,
    cone_scalar,
    cooperation,
    gyration,
    gyration_unitary,
    gyroline,
)
from .gyrodensity import (
    dens_add,
    dens_cogyroline,
    dens_gyroline,
    dens_neg,
    dens_scalar,
    require_density,
)
from .ball import (
    ball_scalar,
    bloch_to_density,
    density_to_bloch,
    einstein_add,
    gamma_factor,
    gyromidpoint,
    mobius_add,
    rapidity_distance,
)
from .closedform2x2 import (
    det_shift_identity,
    gm2_det1,
    l_map,
    midpoint_vector_check,
    norm_product_check,
    qubit_geo_mean,
    qubit_spectral_mean,
    sgm2,
)
from . import errors

# name -> the module that defines it, imported on the name's first access
_LAZY = {
    **dict.fromkeys(("CampaignConfig", "Report", "reproduce_counterexamples",
                     "run_campaign"), "harness"),
    **dict.fromkeys(("gen_random_pd", "substream"), "randgen"),
    **dict.fromkeys(("INEQUALITY_CASES", "CheckResult", "check",
                     "equivalence_statements", "weak_majorize"), "order"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
