"""Exception hierarchy shared across the package."""


class ThermoptError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ThermoptError):
    """Invalid mesh/model/problem configuration or config file."""


class DomainError(ThermoptError):
    """Argument outside the mathematical domain of an operation."""


class AssemblyError(ThermoptError):
    """Inconsistent data detected during finite element assembly."""


class SolverFailure(ThermoptError):
    """A linear solve did not meet its residual contract."""


class _FailedSolve:
    """The per-step history and the work of a state solve that raised, under
    StateSolution's names; empty and 0 for an error raised elsewhere."""

    def __init__(self, message, history=None, cg_iterations=0, factorizations=0):
        super().__init__(message)
        self.history = history or []
        self.cg_iterations = cg_iterations
        self.factorizations = factorizations


class NonconvergenceError(_FailedSolve, ThermoptError):
    """Nonlinear iteration hit its cap before reaching tolerance."""


class CriticalityError(_FailedSolve, ThermoptError):
    """Computed temperature not bounded away from the critical value."""


class AdjointFailure(ThermoptError):
    """Adjoint or sensitivity block system could not be solved."""


class EstimationError(ThermoptError):
    """Eigenvalue or constant estimation failed to converge."""


class CertificateInfeasibleError(ThermoptError):
    """Certificate constants cannot be evaluated for the given inputs."""
