"""Exception types shared across the package."""


class SpaceMismatchError(ValueError):
    """Two values built over incompatible history spaces were combined."""


class UnsampledPointError(LookupError):
    """A table-backed measure was evaluated outside its sampled points."""


class CapExceededError(RuntimeError):
    """A size/enumeration cap was exceeded (subset order, table size, ...)."""


class InvalidInputError(ValueError):
    """Input outside an operation's domain (an order below 1, the wrong
    number of arguments, ...); the only ValueErrors the CLI exits 2 on."""


class OrderMembershipError(InvalidInputError):
    """A measure failed the order-n membership probe during decomposition."""


class SpecFormatError(InvalidInputError):
    """A JSON input file did not match the expected schema."""
