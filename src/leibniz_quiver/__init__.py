"""Exact computation of Leibniz-algebra cohomology, Ext groups between
simple bimodules, and Gabriel quivers, over the rationals."""

from .errors import (
    AlgebraicError,
    AlgebraAxiomError,
    CollapseNotCertifiedError,
    ComplexError,
    DimensionError,
    InputError,
    ModuleAxiomError,
    NonIntegralWeightError,
    StabilityError,
    UnsupportedDegreeError,
    VerificationError,
)
from .linear import Mat, SubspaceBasis, kernel_basis, image_basis, rank, solve
from .algebra import (
    LeftModule,
    LeibnizAlgebra,
    LieAlgebra,
    adjoint_module,
    algebra_from_spec,
    algebra_to_spec,
    check_left_leibniz,
    hemi_semidirect,
    leibniz_kernel,
    quotient_data,
    trivial_algebra,
)
from .bimodule import (
    Bimodule,
    OneDimBimodule,
    antisymmetric,
    antisymmetric_kernel,
    bimodule_from_spec,
    bimodule_to_spec,
    check_bimodule,
    hom_module_action,
    right_invariants,
    sym_quotient,
    symmetric,
    trivial_bimodule,
)
from .repsl2 import (
    SL2Module,
    WeightMultiset,
    clebsch_gordan,
    decompose,
    dual,
    direct_sum,
    hemi_sl2,
    hom_dim,
    simple_module,
    sl2,
    tensor,
)
from .cohomology import (
    CochainComplex,
    CohomologyResult,
    ce_cohomology,
    ce_dims_via_invariants,
    hl_module_structure,
    leibniz_cohomology,
    trivial_algebra_closed_form,
)
from .ext import (
    CollapseCertificate,
    E2Page,
    ExtResult,
    SimpleDescriptor,
    assemble_ext,
    certify_collapse,
    e2_first,
    e2_second,
    ext1_hemi_closed,
    ext1_hemi_oracle,
    ext_base_sym,
    ext_dims,
    ext_simple_closed,
    ext_trivial_closed,
    nhat,
)
from .quiver import Quiver, quiver_from_json, quiver_hemi, quiver_trivial, to_dot, to_json

__version__ = "0.1.0"
