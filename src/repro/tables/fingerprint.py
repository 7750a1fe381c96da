"""Content fingerprints: the one identity of a column's (and a table's) values.

A length-prefixed BLAKE2b digest of a column's values: order-sensitive,
header-blind and unambiguous about value boundaries.  Every cache in the
system keys on it, through :attr:`~repro.tables.Column.fingerprint` and
:attr:`~repro.tables.Table.fingerprint`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = ["ColumnFingerprinter", "values_fingerprint", "combine_fingerprints"]


class ColumnFingerprinter:
    """Incrementally hash a column's values, chunk by chunk.

    Produces the exact same digest as :func:`values_fingerprint` over the
    concatenated values (and therefore the same fingerprint the serving
    predictor computes): each value is length-prefixed so value
    boundaries are unambiguous across chunk boundaries.  Values are
    UTF-8 encoded with ``surrogatepass``, so a lone surrogate (valid in
    JSON) hashes instead of raising, and every other string hashes
    exactly as under plain UTF-8.
    """

    __slots__ = ("_digest",)

    def __init__(self) -> None:
        self._digest = hashlib.blake2b(digest_size=16)

    def update(self, values: Iterable[str]) -> "ColumnFingerprinter":
        """Fold a batch of values into the running digest."""
        digest = self._digest
        for value in values:
            encoded = value.encode("utf-8", "surrogatepass")
            digest.update(len(encoded).to_bytes(4, "little"))
            digest.update(encoded)
        return self

    def hexdigest(self) -> str:
        """The fingerprint of everything folded in so far."""
        return self._digest.hexdigest()


def values_fingerprint(values: Iterable[str]) -> str:
    """Content hash of a column's values (order-sensitive, header-blind).

    This is the canonical column-identity hash of the whole system:
    :attr:`repro.tables.Column.fingerprint` delegates here.

    Examples:
        >>> values_fingerprint(["ab", "c"]) == values_fingerprint(["a", "bc"])
        False
    """
    return ColumnFingerprinter().update(values).hexdigest()


def combine_fingerprints(fingerprints: Sequence[str]) -> str:
    """Table fingerprint: one digest over the column fingerprint bytes.

    Matches the serving predictor's table fingerprint, so topic vectors
    cached by ``annotate`` are hits for ``predict`` and vice versa.
    """
    digest = hashlib.blake2b(digest_size=16)
    for fingerprint in fingerprints:
        digest.update(bytes.fromhex(fingerprint))
    return digest.hexdigest()
