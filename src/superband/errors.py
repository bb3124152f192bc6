"""Exception types shared across the package.

Every error raised on purpose by superband derives from :class:`SuperbandError`,
so callers can catch the whole family with one clause while the CLI maps
usage-level problems (ConfigError, ParseError) to exit code 2.

A refused graded argument (``algebra._graded_arg``) is a ConfigError if it is
no GrassmannElement, a ContextError if it is of another algebra and a
ParityError if it has the wrong parity.  A refused container argument
(``supermatrix._container_arg``: a matrix, vector, family or component list)
is a ConfigError if it is no graded matrix or vector at all, a ShapeError if
it is one of another class, shape or block sizes, and a ContextError if it
is of another algebra.  A collection argument that is not iterable
(``algebra._collection``) and a parameter name outside its kind's variables
(``poly.SparsePoly._index``) are ConfigErrors; a collection's members are
checked by their kind's rule.  An integer argument (``algebra._int_arg``) that
is no int, a bool included, or is out of range is a ConfigError, but a block
size below 1 or a Gamma or Delta block of the wrong size is a ShapeError.  A ctx
that is no AlgebraContext (``_context_arg``), a terms mapping or an assignment
that is no dict (``_dict_arg``), a scalar or coefficient that ``Fraction``
refuses (``_rational_arg``), a grid or a row of one that is not iterable
(``supermatrix._grid_arg``), a file path that is no str or os.PathLike
(``serialize.read_json``) or text no str or bytes (``load_json``), a cfg
that is no SuiteConfig, an exponent key (``poly.SparsePoly._check_key``) and
a value no ring lifts, such as a scale factor (``algebra._Sparse._arg``),
are ConfigErrors.  Each message names the argument.  Division by an element
whose body is zero, 0 included, raises NotInvertible.
"""

from __future__ import annotations


class SuperbandError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SuperbandError):
    """A parameter is outside its supported range (generator count, degree cap,
    unknown family kind, missing indeterminate assignment, and so on)."""


class ContextError(SuperbandError):
    """Two values from algebras with different generator counts were mixed."""


class ParityError(SuperbandError):
    """A value violates the even/odd grading required at its position."""


class ShapeError(SuperbandError):
    """Matrix or vector dimensions do not match the operation."""


class NotInvertible(SuperbandError):
    """Inversion of, or division by, an element whose body vanishes was requested."""


class ParseError(SuperbandError):
    """Malformed serialized input.

    ``offset`` carries the byte offset into the input when the underlying JSON
    decoder reported one, else None.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
