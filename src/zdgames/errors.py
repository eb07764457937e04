"""Exceptions raised by the library.

Everything derives from :class:`ZDGamesError` so callers can catch the
library wholesale.  Plain ``ValueError`` is still used for ordinary
argument validation (bad shapes, out-of-range parameters).
"""


class ZDGamesError(Exception):
    """Base class for domain-specific failures."""


class NonUniqueStationary(ZDGamesError):
    """The chain's stationary distribution is not unique.

    Raised when the null space of P - I has dimension greater than one,
    i.e. the corank test found more than one vanishing singular value.
    """

    def __init__(self, corank):
        self.corank = corank
        super().__init__("non-unique stationary distribution: "
                         f"null space of P - I has dimension {corank}")


class InaccurateStationary(ZDGamesError):
    """The stationary solve cannot meet its tolerances in double precision.

    Raised when both the direct solve and the SVD fallback leave mass below
    -1e-12 or a residual above 1e-9: the chain is unique by the corank test
    but too close to degenerate for its stationary vector to be resolved.
    """


class DegenerateDenominator(ZDGamesError):
    """D(p, q, 1) vanishes: P - I has corank above 1 (a value of 0.0 may be underflow)."""


class NoFeasiblePin(ZDGamesError):
    """The target score lies outside the window the pinner can enforce."""


class DegenerateRatio(ZDGamesError):
    """Empirical extortion ratio is undefined (denominator near zero)."""


class SchemaError(ZDGamesError):
    """A JSON document failed schema or consistency validation."""
