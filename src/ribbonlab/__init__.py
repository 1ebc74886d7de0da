"""Exact-arithmetic toolkit for canonical ribbons over rational normal curves.

The package decides when quadrics and higher relations are limits of
canonical geometry (``rnc``, ``conormal``), builds weighted ribbon models and
their Groebner/Hilbert certificates (``xg``), realizes power ideals through
Fitting minors (``fitting``), and runs pi-adic order-doubling experiments on
one-parameter families (``families``).  Everything is over Q or Q[pi]/(pi^N);
no floating point anywhere.

``import ribbonlab`` loads no submodule: each public name is read from the
submodule that defines it, which is imported on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "conormal": "LambdaFunctional is_limit_quadric is_limit_relation "
                "phi_d phi_kernel_slice psi_d ribbon_slice",
    "exact": "RatMatrix TruncatedScalar",
    "families": "TruncatedFamily base_change_pi_squared binary_discriminant constant_family "
                "discriminant_section even_odd_split "
                "hyperell_order negate_v order_doubling_experiment perturb_hyperelliptic "
                "reduction_hilbert_function rescale_v ribbon_order",
    "fitting": "phi2_symbolic phid_symbolic_blocks verify_power_ideal",
    "poly": "BinaryForm WPoly monomials quartic_lift veronese_pullback",
    "rnc": "IdealSlice QuadForm hankel_generators ideal_slice ideal_square_slice "
           "q_to_quadric",
    "xg": "XgIdeal buchberger canonical_ribbon_ideal certify_groebner eliminate_v_degree "
          "hilbert_function hyperelliptic_model random_ribbon_ell ribbon_ell "
          "ribbon_ell_space split_ribbon_ideal syzygies_by_degree",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
