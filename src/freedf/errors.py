"""Exception hierarchy.

Every error raised by the library derives from FreedfError so callers
(and the CLI) can catch one type and render a machine-readable report.
"""


class FreedfError(Exception):
    """Base class for all freedf errors."""

    code = "error"

    def payload(self):
        """Dict used for the CLI's JSON error rendering."""
        return {"error": self.code, "message": str(self)}


class EmptyInput(FreedfError):
    code = "empty-input"


class SizeMismatch(FreedfError):
    code = "size-mismatch"


class BadSubset(FreedfError):
    code = "bad-subset"


class OrderTooLarge(FreedfError):
    code = "order-too-large"


class UnknownCategory(FreedfError):
    code = "unknown-category"


class NotComparable(FreedfError):
    code = "not-comparable"


class NotInPoset(FreedfError):
    code = "not-in-poset"


class SingularGram(FreedfError):
    code = "singular-gram"

    def __init__(self, cat, m, n):
        self.cat = cat
        self.m = m
        self.n = n
        super().__init__(
            "Gram matrix for category %s at m=%d, n=%d is singular; "
            "no Weingarten matrix exists at this dimension" % (cat, m, n)
        )

    def payload(self):
        d = super().payload()
        d.update({"category": str(self.cat), "m": self.m, "n": self.n})
        return d


class OrderExceeded(FreedfError):
    code = "order-exceeded"


class OrderExceedsN(FreedfError):
    code = "order-exceeds-n"


class _Incomplete(FreedfError):
    """An input that lacks entries; payload() lists the missing keys."""

    def __init__(self, message, missing=()):
        self.missing = list(missing)
        super().__init__(message)

    def payload(self):
        d = super().payload()
        d["missing"] = self.missing
        return d


class IncompleteTable(_Incomplete):
    code = "incomplete-table"


class SchemaError(FreedfError):
    code = "schema-error"


class BadRational(FreedfError):
    code = "bad-rational"


class NotInvariant(FreedfError):
    code = "not-invariant"


class MissingLowerOrder(FreedfError):
    code = "missing-lower-order"


class NotKernelRepresentable(FreedfError):
    code = "not-kernel-representable"


class IncompleteRestriction(_Incomplete):
    code = "incomplete-restriction"


class TableTooLarge(FreedfError):
    code = "table-too-large"
