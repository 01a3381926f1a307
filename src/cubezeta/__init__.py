"""Exact arithmetic for 2x2x2 integer cubes and their counting identities.

Subpackages by topic: quadratic congruence counting (``congruence``), cube
invariants and the orbit oracle (``cube``), the congruence-pair orbit
parameterization and the B formula (``orbits``), multiple Dirichlet series
coefficients (``wmds``), trivariate prime-part generating functions
(``ppart``), Dirichlet-series identity checks (``identities``), quadratic
ring ideal classes and moduli fibers (``quadring``), and the command line
interface (``cli``).
"""

from .congruence import (
    chi,
    discriminant_data,
    divisors,
    factorize,
    fundamental_discriminant,
    hat,
    is_discriminant,
    is_fundamental,
    kronecker,
    sigma1,
    sqrt_count,
    sqrt_count_direct,
    sqrt_roots,
    squarefree_split,
)
from .cube import (
    BinaryQuadraticForm,
    Cube,
    GroupElement,
    act,
    act_word,
    discriminant,
    forms,
    invariants,
    is_semistable,
    orbit_count_oracle,
    shear1,
    shear2,
    sl2,
    stabilizer_trivial,
)
from .identities import (
    IdentityReport,
    convolve,
    convolve_bi,
    convolve_many,
    partial_sum,
    standard_series,
    verify_cor24,
    verify_prop21,
    verify_prop25,
    verify_siegel,
    verify_thm12,
)
from .orbits import B, CongruencePair, b_grid, congruence_pairs, cube_from_invariants
from .ppart import (
    f_a3_convolution,
    f_a3_expand,
    p_eval,
    p_format,
    specialization_check,
    thm44_check,
)
from .quadring import (
    IdealClassPair,
    OrientedIdealClass,
    QuadraticRing,
    classes_with_norm,
    fiber_count,
    fiber_sums,
    ideal_class_pairs,
    level_counts,
    pair_fiber,
    pair_from_cube,
    ring_ideal_from_form,
    verify_thm13,
    verify_thm13_scan,
)
from .wmds import a3_grid, a_coeff, a_coeff3, a_pp, tilde_a

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
