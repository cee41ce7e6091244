"""kamforge: executable formal KAM theory.

Truncated Poisson-series arithmetic on the algebraic torus, constructive
normal-form iterations, small-denominator analysis in exact arithmetic,
and quadratically convergent Lie iterations for matrix group actions.
"""

__version__ = "0.1.0"

from .scalar import (  # noqa: F401
    CertifiedDecimal,
    QuadScalar,
    ScalarContext,
    continued_fraction,
    convergents,
    exact_sign,
    quadratic,
)
from .series import (  # noqa: F401
    Generator,
    PoissonSeries,
    TruncationSpec,
    average,
    compose_flows,
    flow_apply,
    poisson_bracket,
)
from .normalform import (  # noqa: F401
    IntegrableHamiltonian,
    NormalFormResult,
    NormalSpaceClass,
    formal_normal_form,
    homological_solve,
    kolmogorov_normal_form,
    normal_space_class,
    resonances,
)
from .diophantine import (  # noqa: F401
    FourierTable,
    FrequencyVector,
    decay_fit,
    hadamard_apply,
    kolmogorov_constant,
    liouville_witness,
    measure_estimate,
    small_denominator_series,
)

# The names of ``lie`` are loaded on first access (PEP 562), because ``lie``
# imports numpy and only the float kernels need it.
_LIE_NAMES = frozenset({
    "IterationTrace",
    "SubspaceBasis",
    "commutant_basis",
    "convergence_order",
    "lie_iterate_homogeneous",
    "lie_iterate_parametric",
    "matrix_exp",
    "transversal_from_commutant",
})


def __getattr__(name):
    if name == "lie" or name in _LIE_NAMES:
        import importlib  # not ``from . import lie``, which would look ``lie`` up here first

        lie = importlib.import_module(".lie", __name__)
        return lie if name == "lie" else getattr(lie, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
