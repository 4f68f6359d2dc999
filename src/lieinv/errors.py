"""Exception hierarchy shared by all lieinv modules."""


class LieInvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LieInvError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseError):
    pass


class UnboundSymbol(LieInvError):
    pass


class SingularEvaluation(LieInvError):
    pass


class Unsampleable(LieInvError):
    pass


class UnsupportedOperation(LieInvError):
    pass


class OrderOverflow(LieInvError):
    pass


class JacobiViolation(LieInvError):
    def __init__(self, quadruple):
        i, j, k, l = quadruple
        super().__init__(f"Jacobi identity fails for (i,j,k,l)=({i},{j},{k},{l})")
        self.quadruple = quadruple


class EigenvalueUnsupported(LieInvError):
    pass


class VerificationFailed(LieInvError):
    pass


class CatalogError(LieInvError):
    pass


class NotHomogeneous(LieInvError):
    pass


class NotRescaleInvariant(LieInvError):
    pass


class ResidualDependence(LieInvError):
    pass
