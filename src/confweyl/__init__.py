"""confweyl: exact Anick resolution and Hochschild cohomology for the
conformal Weyl algebra U(2) over its coefficient algebra."""

__version__ = "0.1.0"
