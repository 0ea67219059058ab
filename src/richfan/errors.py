"""Exception hierarchy shared by the whole package.

DomainError covers mathematically meaningful failures (the CLI maps these to
exit code 1); SchemaError covers malformed input documents (exit code 2).
"""


class DomainError(Exception):
    """A well-formed input outside an operation's domain."""


class SchemaError(Exception):
    """Input document does not match the expected JSON shape."""


MAX_RANK = 64  # the largest ambient rank a document may declare


def check_rank(rank: int, what: str) -> None:
    """SchemaError for a document rank above MAX_RANK, before anything of that
    rank is built.  The library constructors take any rank."""
    if rank > MAX_RANK:
        raise SchemaError(f"{what} {rank} exceeds the limit of {MAX_RANK}")


def is_int(x: object) -> bool:
    """A JSON integer: an int but not a bool, so that true never reads as 1."""
    return type(x) is int


def is_int_vector(v: object, length: int | None = None) -> bool:
    """A JSON list of integers (see is_int), of the given length if any."""
    return isinstance(v, list) and length in (None, len(v)) and all(map(is_int, v))


class DisconnectedGraph(DomainError):
    pass


class UnknownEdge(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class NotAMember(DomainError):
    pass


class EmptySet(DomainError):
    pass


class NotRClose(DomainError):
    pass


class AllZero(DomainError):
    pass


class NotRRich(DomainError):
    pass


class NotAFace(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class UnknownCoordinate(DomainError):
    pass


class InvalidChoice(DomainError):
    pass


class NotMinimalOrder(DomainError):
    pass


class RankNotThree(DomainError):
    pass
