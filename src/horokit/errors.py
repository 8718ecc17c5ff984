"""Shared exception types."""


class HorokitError(Exception):
    pass


class TrivialRootHasNoCoroot(HorokitError):
    pass


class NotAColor(HorokitError):
    pass


class UnboundedPolyhedron(HorokitError):
    pass


class EmptyPolytope(HorokitError):
    pass


class NotQCartier(HorokitError):
    pass


class NotCartier(HorokitError):
    pass


class NotAmple(HorokitError):
    pass


class NotLocallyFactorial(HorokitError):
    pass


class NotComplete(HorokitError):
    pass


class UnsupportedFan(HorokitError):
    pass


class AssertionBZeta(HorokitError):
    pass


class EmptyFace(HorokitError):
    pass


class IncompatibleQuadruples(HorokitError):
    pass


class DegenerateFamily(HorokitError):
    pass


class NoMaximalPreimage(HorokitError):
    pass


class PreconditionViolated(HorokitError):
    pass


class NotRestrictedForm(HorokitError):
    pass


class SpecInvariantViolated(HorokitError):
    pass


class NotSmoothInput(HorokitError):
    pass


class RewriteDepthExceeded(HorokitError):
    pass
