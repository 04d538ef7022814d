"""Exception types shared across the package."""

import re


class ZchainError(Exception):
    """Base class for all structured errors raised by this package; each
    class's ``code`` is the snake_case of its name."""

    code = "zchain_error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


class DimensionMismatch(ZchainError, ValueError):
    pass


class DegreeError(ZchainError):
    """An error that names the degree where it was found (None when unknown)."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class IllDefined(DegreeError):
    """A matrix does not define a homomorphism on the given presentations."""


class NotAComplex(DegreeError):
    """d composed with d is not zero."""


class NotAChainMap(DegreeError):
    """Components do not commute with the differentials."""


class InfiniteGroup(ZchainError):
    """Group-ring constructions require a finite group."""


class NotFree(ZchainError):
    pass


class NotAcyclic(ZchainError):
    pass


class NotAcyclicFibration(ZchainError):
    pass


class NotContractible(ZchainError):
    pass


class NotMonoNotEpi(ZchainError):
    pass


class NotASplitting(ZchainError):
    pass


class NotLiftable(ZchainError):
    """Lifting square is not in one of the two supported configurations."""


class NotCofibration(ZchainError):
    pass


class PreconditionFailed(DegreeError):
    """An input violates what an operation requires, such as a lifting
    square that does not commute."""


class CertificateFailed(ZchainError):
    """A constructed object failed its own certificate (raised by zchain.certify)."""

    def __init__(self, message, construction, degree=None, witness=None):
        where = construction if degree is None else f"{construction}, degree {degree}"
        super().__init__(f"{message} [{where}]")
        self.details = {"construction": construction, "degree": degree, "witness": witness}


class RankCapExceeded(ZchainError):
    """A materialized group would exceed the configured rank cap."""


class DocumentError(ZchainError):
    """Structured parse/validation failure for JSON documents."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)
