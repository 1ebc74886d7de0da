"""Exact-arithmetic toolkit for canonical ribbons over rational normal curves.

The package decides when quadrics and higher relations are limits of
canonical geometry (``rnc``, ``conormal``), builds weighted ribbon models and
their Groebner/Hilbert certificates (``xg``), realizes power ideals through
Fitting minors (``fitting``), and runs pi-adic order-doubling experiments on
one-parameter families (``families``).  Everything is over Q or Q[pi]/(pi^N);
no floating point anywhere.
"""

from .conormal import (
    ConormalMatrix,
    LambdaFunctional,
    is_limit_quadric,
    is_limit_relation,
    phi_d,
    phi_kernel_slice,
    psi_d,
    ribbon_slice,
)
from .exact import RatMatrix, TruncatedScalar
from .families import (
    DiscriminantSection,
    TruncatedFamily,
    base_change_pi_squared,
    binary_discriminant,
    constant_family,
    discriminant_section,
    even_odd_split,
    hyperell_order,
    negate_v,
    order_doubling_experiment,
    perturb_hyperelliptic,
    reduction_hilbert_function,
    rescale_v,
    ribbon_order,
)
from .fitting import (
    phi2_symbolic,
    phid_symbolic_blocks,
    verify_power_ideal,
)
from .poly import (
    BinaryForm,
    WPoly,
    monomials,
    quartic_lift,
    resultant,
    veronese_pullback,
)
from .rnc import (
    IdealSlice,
    QuadForm,
    hankel_generators,
    ideal_slice,
    ideal_square_slice,
    q_to_quadric,
)
from .xg import (
    XgIdeal,
    buchberger,
    canonical_ribbon_ideal,
    certify_groebner,
    eliminate_v_degree,
    hilbert_function,
    hyperelliptic_model,
    random_ribbon_ell,
    ribbon_ell,
    ribbon_ell_space,
    split_ribbon_ideal,
    syzygies_by_degree,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "ConormalMatrix",
    "DiscriminantSection",
    "IdealSlice",
    "LambdaFunctional",
    "QuadForm",
    "RatMatrix",
    "TruncatedFamily",
    "TruncatedScalar",
    "WPoly",
    "XgIdeal",
    "base_change_pi_squared",
    "binary_discriminant",
    "buchberger",
    "canonical_ribbon_ideal",
    "certify_groebner",
    "constant_family",
    "discriminant_section",
    "eliminate_v_degree",
    "even_odd_split",
    "hankel_generators",
    "hilbert_function",
    "hyperell_order",
    "hyperelliptic_model",
    "ideal_slice",
    "ideal_square_slice",
    "is_limit_quadric",
    "is_limit_relation",
    "monomials",
    "negate_v",
    "order_doubling_experiment",
    "perturb_hyperelliptic",
    "phi2_symbolic",
    "phi_d",
    "phi_kernel_slice",
    "phid_symbolic_blocks",
    "psi_d",
    "q_to_quadric",
    "quartic_lift",
    "random_ribbon_ell",
    "reduction_hilbert_function",
    "rescale_v",
    "resultant",
    "ribbon_ell",
    "ribbon_ell_space",
    "ribbon_order",
    "ribbon_slice",
    "split_ribbon_ideal",
    "syzygies_by_degree",
    "verify_power_ideal",
    "veronese_pullback",
]
