"""Exception types shared across the package.

Most errors signal bad user input (rejected configurations, malformed
elements) and derive from ValueError so callers can catch them uniformly.
A few signal internal invariant violations that should never happen for
valid inputs; those derive from ArithmeticError and are treated as fatal.
"""


class FieldMismatch(ValueError):
    """Operands belong to different quadratic fields."""


class UnsupportedField(ValueError):
    """d is not one of the five norm-Euclidean values 1, 2, 3, 7, 11."""


class ParseError(ValueError):
    """Malformed element or ideal literal."""


class ZeroModulus(ValueError):
    """An operation needed a nonzero modulus ideal."""


class NotCoprime(ValueError):
    """Inputs were required to generate the unit ideal but do not."""


class NotFound(ValueError):
    """A bounded search exhausted its budget without a hit."""


class ExhaustedSearch(NotFound):
    """A prime sampler ran past its norm bound."""


class NotProjectivePoint(ValueError):
    """(c, d) does not define a point of P^1(O/n)."""


class BadDeterminant(ValueError):
    """A matrix was required to have unit (or one) determinant."""


class NotUnimodular(BadDeterminant):
    """A matrix was required to lie in SL2(O)."""


class BadGeneratorId(ValueError):
    """A word referenced a generator the presentation does not have."""


class NotInSubgroup(ValueError):
    """A matrix does not lie in the congruence subgroup at this level."""


class BadModulus(ValueError):
    """The coefficient modulus q is not an admissible prime."""


class LevelMismatch(ValueError):
    """Two objects built at different levels (or fields) were combined."""


class ShapeMismatch(ValueError):
    """Linear-algebra operands have incompatible shapes or moduli."""


class NotPrime(ValueError):
    """An ideal was required to be prime but is not."""


class NotCoprimeToLevel(ValueError):
    """A Hecke prime must be coprime to the level."""


class ProjectionFailure(ArithmeticError):
    """A vector expected to lie in a subspace does not (internal error)."""


class PermutationFailure(ArithmeticError):
    """Hecke coset permutation was not well defined (internal error)."""


class NotStable(ArithmeticError):
    """A subspace expected to be operator-stable is not (internal error)."""


class ConstructionFailure(ArithmeticError):
    """A certified construction failed its own certificate (internal error)."""
