"""Modules of constant Jordan type and the vector bundles they define.

The package computes, in exact arithmetic over small finite fields:

- Jordan types of commuting p-nilpotent matrix families at points of
  projective space, with sampling-based constancy checks (`kemod`);
- the graded subquotients of the degree-raising operator on M (x) S,
  their Hilbert functions and fitted Hilbert polynomials (`thetasheaf`);
- Chern classes on P^{r-1}, read off Hilbert polynomials through their
  integer K-classes or off resolutions by sums of twists (`chowring`);
- modules realizing a prescribed bundle through mapping cones over
  cocycle matrices derived from a twist resolution (`realize`);
- the underlying dense linear algebra over GF(p^e) (`gfalg`);
- module and resolution-spec files and module references (`formats`),
  the `cjt verify` suites (`suites`) and the command line (`cli`), whose
  exit codes follow the two error kinds `InputError` and `Failure` (`errors`).
"""

from .errors import Failure, InputError
from .gfalg import FieldCtx, build_field, kernel_basis
from .kemod import (
    ConstancyVerdict,
    ConstantSoFar,
    Falsified,
    JordanType,
    KEModule,
    ModuleHom,
    Point,
    SamplingPlan,
    builtin,
    check_constant,
    direct_sum,
    dual,
    jordan_type_at,
    new_module,
    omega,
    strip_free,
    tensor,
    x_alpha,
)
from .thetasheaf import (
    FiberReport,
    HilbertData,
    ThetaOp,
    fiber,
    filtration_check,
    graded_dim,
    hilbert,
    twist_shift_check,
)
from .chowring import (
    ChowClass,
    chern_from_hilbert,
    divisibility_check,
    dual_class,
    frobenius_pullback,
    product_twists,
    twist,
    whitney,
)
from .realize import (
    ResolutionSpec,
    cone,
    euler_spec,
    koszul_tail_spec,
    line_bundle_spec,
    realize_bundle,
    stable_models,
)

__version__ = "0.1.0"
