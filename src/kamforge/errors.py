"""Exception hierarchy shared by all kamforge modules."""


class KamError(Exception):
    """Base class for all structured kamforge errors."""


class ContextMismatch(KamError):
    """Two values from incompatible scalar contexts were combined."""


class DivisionByZero(KamError, ZeroDivisionError):
    """Exact division by a zero scalar."""


class RationalInput(KamError):
    """A continued-fraction expansion was requested for a rational number."""


class GeneratorOrderViolation(KamError):
    """A flow generator does not meet its minimum t-order requirement."""


class ResonantDenominator(KamError):
    """A homological equation met a lattice vector I with (omega, I) = 0."""

    def __init__(self, vector, t_order=None):
        self.vector = tuple(vector)
        self.t_order = t_order
        msg = f"resonant denominator at I={self.vector}"
        if t_order is not None:
            msg += f" (t-order {t_order})"
        super().__init__(msg)


class DegenerateAlpha(KamError):
    """The quadratic-part matrix of an integrable Hamiltonian is singular."""


class InsufficientSupport(KamError):
    """A Fourier table has too few nonzero entries for a decay fit."""


class InsufficientSteps(KamError):
    """An iteration trace has too few usable steps to fit a convergence order."""


class NoConvergence(KamError):
    """A Lie iteration hit its step limit without reducing the error."""


class BasinExceeded(KamError):
    """The initial perturbation lies outside the configured basin radius."""


class RankDeficient(KamError):
    """The stacked (transversal, infinitesimal-action) operator is not surjective."""


class OrthogonalityCheckFailed(KamError):
    """A transversal candidate failed the orbit-orthogonality verification."""


class NonFiniteResult(KamError):
    """A result is NaN or infinite, which a strict JSON report cannot hold."""


class ResultTooLarge(KamError):
    """A result is an integer too long for the interpreter to write as text."""


class SchemaError(KamError):
    """A scenario file does not validate against its kind's schema."""


class InvalidInput(KamError, ValueError):
    """An input is malformed or inconsistent, although it passed the schema."""
