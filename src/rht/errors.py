"""Exception types shared across the toolkit.

Domain-level negatives (an infeasible weight system, a family that fails
verification) are returned as values, not raised.  Exceptions are reserved
for inputs that violate a contract: malformed files, elements of different
algebras, out-of-range degree requests, singular linear parts.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(ToolkitError):
    """A JSON document does not match the expected schema.

    `path` locates the offending node, e.g. "generators[2].degree".
    """

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class AmbientMismatchError(ToolkitError):
    """Elements of different algebras were combined, e.g. of a FreeGCA and its `laurent`."""


class HomogeneityError(ToolkitError):
    """An image prescribed for a derivation or graded map is not homogeneous
    of the required degree."""


class SingularMapError(ToolkitError):
    """An automorphism inversion met a non-invertible linear part."""


class FamilyError(ToolkitError):
    """A one-parameter family failed verification where a verified family
    was required."""


class DegreeRangeError(ToolkitError):
    """A cohomology statement was requested beyond the certified range of
    the truncated model."""
