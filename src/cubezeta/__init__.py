"""Exact arithmetic for 2x2x2 integer cubes and their counting identities.

Subpackages by topic: quadratic congruence counting (``congruence``), cube
invariants and the orbit oracle (``cube``), the congruence-pair orbit
parameterization and the B formula (``orbits``), multiple Dirichlet series
coefficients (``wmds``), trivariate prime-part generating functions
(``ppart``), Dirichlet-series identity checks (``identities``), quadratic
ring ideal classes and moduli fibers (``quadring``), the report type that
every check returns (``report``), and the command line interface (``cli``,
with one handler module per command in ``commands``).

What is loaded when: ``import cubezeta`` registers the seven library
modules in ``sys.modules`` through ``importlib.util.LazyLoader`` and runs
none of their code.  A module's code runs on the first read of one of its
attributes, and its own ``from .x import name`` lines then load what it
reads.  A submodule read from the package (``cubezeta.cube`` or ``from
cubezeta import cube``) comes back with its code run, and a re-exported
name (``cubezeta.B``) is read from the module that defines it, which runs
that module.  ``cli``, ``commands`` and ``report`` are not registered:
each is imported as any module is, ``cli`` imports the handler of the
command it runs, which loads what it reads, and ``IdentityReport`` is
re-exported from ``identities``.
"""

import importlib.util
import sys

# the names that the package re-exports, by the module that defines them
_EXPORTS = {
    "congruence": (
        "chi", "discriminant_data", "divisors", "factorize", "fundamental_discriminant",
        "hat", "is_discriminant", "is_fundamental", "kronecker", "sigma1", "sqrt_count",
        "sqrt_count_direct", "sqrt_roots", "squarefree_split",
    ),
    "cube": (
        "BinaryQuadraticForm", "Cube", "GroupElement", "act", "act_word", "canonical",
        "discriminant", "forms", "invariants", "is_semistable", "orbit_count_oracle", "shear1",
        "shear2", "sl2",
    ),
    "identities": (
        "IdentityReport", "convolve", "convolve_bi", "convolve_many", "partial_sum",
        "verify_cor24", "verify_prop21", "verify_prop25", "verify_siegel", "verify_thm12",
    ),
    "orbits": ("B", "CongruencePair", "b_grid", "congruence_pairs", "cube_from_invariants"),
    "ppart": (
        "f_a3_convolution", "f_a3_expand", "p_eval", "p_format", "specialization_check",
        "thm44_check",
    ),
    "quadring": (
        "IdealClassPair", "OrientedIdealClass", "QuadraticRing", "classes_with_norm",
        "fiber_count", "fiber_sums", "ideal_class_pairs", "level_counts", "pair_fiber",
        "pair_from_cube", "ring_ideal_from_form", "verify_thm13", "verify_thm13_scan",
    ),
    "wmds": ("a3_grid", "a_coeff", "a_coeff3", "a_pp", "tilde_a"),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str) -> None:
    """Put module ``name`` in ``sys.modules``; its code runs on its first attribute read."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


for _module in _EXPORTS:
    _register_lazily(f"{__name__}.{_module}")
del _module

__all__ = sorted([*_EXPORTS, *_DEFINED_IN])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # the import reads the module's __spec__, which runs a lazy module's code
        return importlib.import_module(f"{__name__}.{name}")
    if name in _DEFINED_IN:
        return getattr(sys.modules[f"{__name__}.{_DEFINED_IN[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
