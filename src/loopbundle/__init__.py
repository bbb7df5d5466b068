"""Polynomial loop groups, weighted mode spaces and holonomy fibre bases.

The package has eight layers, each importing only from the layers before it:

* laurent: matrix-valued trigonometric (Laurent) polynomials, sampling, Fourier projection, polynomiality certificates;
* rand: seeded Haar samplers for U(n), SU(n), SO(n), unit vectors and skew matrices;
* modes: weighted sequence models of loop vectors, the mode derivative, cosh weights, polarization and HS diagnostics;
* spectral: clustered eigendecompositions, branch/central logarithms, skew exponentials and unitary structures;
* sections: quasi-periodic path elements over the classical groups, explicit local sections and the polynomial
  pairing of matched logs;
* holonomy: parallel transport in model geometries, Floquet data, eigen-section bases and the weighted inner product;
* properties: the registered property checks (an observed residual against a threshold) and the sweeps behind them;
* cli: the `loopbundle` command (verify, section, holonomy, demo) and its JSON/CSV reports.
"""

from .laurent import (
    MatrixLoop,
    SampledLoop,
    identity_loop,
    laurent_mul,
    laurent_eval,
    sample_loop,
    group_residual,
    fourier_project,
    certify,
    polynomiality_residual,
)
from .modes import (
    LoopVector,
    ShiftData,
    trivial_shift_data,
    basis_vector,
    l2_norm,
    l2r_norm,
    apply_mode_derivative,
    apply_cosh_weight,
    apply_cosh_weight_inverse,
    apply_polarization,
    apply_loop,
    hs_commutator_norm,
    hs_commutator_norm_truncated,
    conjugated_hs_tail,
)
from .spectral import (
    ChartError,
    EigenDecomp,
    clustered_eig,
    exp_skew,
    exp_chain,
    log_branch,
    central_log,
    unitary_structure,
    log0_decompose,
    so_log,
    torus_path_factor,
    centralizer_element,
    block_structure,
)
from .sections import (
    PathElement,
    project_path,
    act_group,
    path_group_residual,
    smooth_section,
    junction_mismatch,
    un_section,
    su_section,
    so_spectral_split,
    so_section,
    path_fiber_quotient,
    exp_pair_loop,
    fiber_certificate,
)
from .holonomy import (
    ConnectionModel,
    BaseLoop,
    Reparam,
    MonodromyData,
    FiberBasis,
    torus_model,
    sphere_model,
    su2_model,
    transport,
    transport_defect,
    transport_frame,
    floquet,
    monodromy,
    eigen_sections,
    dhat_residuals,
    project_section,
    loop_recognition_residual,
    cos_inner_product,
    cos_gram,
    condiff_residual,
    reparam_actions,
    subbundle_counterexample,
    direct_sum_union_residual,
    complexification_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
