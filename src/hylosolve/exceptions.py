"""Package-wide exception types."""


class GridMismatch(ValueError):
    """Fields or states do not share the same grid/shape."""


class NearZeroCharge(ArithmeticError):
    """Charge magnitude too small for ratio functionals to be well defined."""


class NumericalFailure(RuntimeError):
    """A run produced non-finite values or failed to converge where required.

    detail: an optional diagnosis of JSON scalars (the CLI records it in the
    manifest as failure_detail); partial: the unconverged result, if any,
    whose descent log the CLI keeps."""

    def __init__(self, message: str, detail: dict | None = None, partial=None):
        super().__init__(message)
        self.detail = detail
        self.partial = partial


class NonFinite(NumericalFailure, ValueError):
    """A field holds a non-finite sample: a state cannot be built from it,
    and an evolved row has blown up.  Still a ValueError, as field
    validation has always raised."""
