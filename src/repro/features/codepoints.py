"""Per-codepoint character properties for the NumPy codepoint passes.

Both NumPy featurization passes decode values to a flat ``uint32``
codepoint array with :func:`decode` and classify it through the one
process-wide :data:`_PROPS` table:

* the serving engine's batched pass (:mod:`repro.features.engine`), over
  every value of every column of a batch;
* the streaming accumulators' counted pass
  (:mod:`repro.features.accumulators`), over each column's distinct
  values, weighted by how often each occurs.

The table computes each codepoint's properties with the Python ``str``
methods themselves, the first time the codepoint appears, so its
classification is exactly the per-character loop's.  It grows only as far
as the largest codepoint seen.  :func:`value_facts` turns the flags of a
pass's characters into what the Stat group asks of each value, for both
passes.

Examples:
    >>> import numpy as np
    >>> lengths, codes = decode(["ab", "", "é"])
    >>> lengths.tolist(), codes.tolist()
    ([2, 0, 1], [97, 98, 233])
    >>> table = _CharPropertyTable()
    >>> vocab_index, class_id, flags = table.lookup(codes)
    >>> class_id.tolist() == [_CLASS_ALPHA] * 3
    True
    >>> len(table.class_id)
    256
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.features.char_features import _CHAR_INDEX

_N_ASCII = 128
_UNICODE_SIZE = 0x110000

_CLASS_ALPHA, _CLASS_DIGIT, _CLASS_SPACE, _CLASS_PUNCT = 0, 1, 2, 3
_CLASS_UNSET = 255

_FLAG_UPPER = 1  # char.isupper()
_FLAG_DIGIT = 2  # char.isdigit()
_FLAG_ALPHA = 4  # char.isalpha()
_FLAG_SPACE = 8  # char.isspace() (== str.strip() / str.split() whitespace)
_FLAG_CASED = 16  # char.islower() or char.isupper() or char.istitle()


class _CharPropertyTable:
    """Per-codepoint character properties with exact ``str`` semantics.

    ASCII is filled eagerly; other codepoints are computed lazily (via the
    Python ``str`` methods themselves, so parity with the reference loop is
    exact) the first time they appear, then cached for the life of the
    process.  The arrays grow to the next power of two above the largest
    codepoint seen: 256 entries for Latin-1, 65536 at most for CJK.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.vocab_index = np.full(_N_ASCII, -1, dtype=np.int32)
        self.class_id = np.full(_N_ASCII, _CLASS_UNSET, dtype=np.uint8)
        self.flags = np.zeros(_N_ASCII, dtype=np.uint8)
        self._fill(range(_N_ASCII))

    def _fill(self, codepoints) -> None:
        for code in codepoints:
            char = chr(int(code))
            lowered = char.lower()
            if lowered.isalpha():
                class_id = _CLASS_ALPHA
            elif lowered.isdigit():
                class_id = _CLASS_DIGIT
            elif lowered.isspace():
                class_id = _CLASS_SPACE
            else:
                class_id = _CLASS_PUNCT
            flags = 0
            if char.isupper():
                flags |= _FLAG_UPPER
            if char.isdigit():
                flags |= _FLAG_DIGIT
            if char.isalpha():
                flags |= _FLAG_ALPHA
            if char.isspace():
                flags |= _FLAG_SPACE
            if char.islower() or char.isupper() or char.istitle():
                flags |= _FLAG_CASED
            self.vocab_index[code] = _CHAR_INDEX.get(lowered, -1)
            self.class_id[code] = class_id
            self.flags[code] = flags

    def _grow(self, max_code: int) -> None:
        size = min(_UNICODE_SIZE, 1 << max_code.bit_length())
        old = len(self.class_id)
        vocab_index = np.full(size, -1, dtype=np.int32)
        class_id = np.full(size, _CLASS_UNSET, dtype=np.uint8)
        flags = np.zeros(size, dtype=np.uint8)
        vocab_index[:old] = self.vocab_index
        class_id[:old] = self.class_id
        flags[:old] = self.flags
        self.vocab_index, self.class_id, self.flags = vocab_index, class_id, flags

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vocab index, char class and property flags for a codepoint array."""
        codes = codes.astype(np.int64, copy=False)
        # Threads share the table (serving's batch and shadow threads): a
        # fill racing a grow would be lost, and a grow sized for a smaller
        # codepoint would try to shrink the arrays.
        with self._lock:
            if codes.size:
                max_code = int(codes.max())
                if max_code >= len(self.class_id):
                    self._grow(max_code)
            unset = codes[self.class_id[codes] == _CLASS_UNSET]
            if unset.size:
                self._fill(np.unique(unset))
            return self.vocab_index[codes], self.class_id[codes], self.flags[codes]


_PROPS = _CharPropertyTable()


def decode(values: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each value's length, and the codepoints of all values joined."""
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    joined = "".join(values)
    if not joined:
        return lengths, np.empty(0, dtype=np.uint32)
    # surrogatepass: lone surrogates (reachable via JSON corpora) must
    # featurize like any other codepoint, exactly as the loop oracle's
    # per-char str methods do — not crash the pass.
    codes = np.frombuffer(
        joined.encode("utf-32-le", errors="surrogatepass"), dtype=np.uint32
    )
    return lengths, codes


def value_facts(
    value_len: np.ndarray, value_ids: np.ndarray, flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the Stat group asks of each value, from its characters' flags.

    ``value_ids`` maps each character to its value.  Returns, per value:
    whether it is kept (``value.strip()`` is not empty), its word count
    (``len(value.split())``), whether it has a digit and a letter, and
    ``value.isupper()``.
    """
    n_values = len(value_len)

    def count(mask: np.ndarray) -> np.ndarray:
        return np.bincount(value_ids[mask], minlength=n_values)

    space = (flags & _FLAG_SPACE) > 0
    upper = (flags & _FLAG_UPPER) > 0
    # A word opens at a non-space character that starts its value or
    # follows a space.
    follows_space = np.ones_like(space)
    follows_space[1:] = space[:-1]
    follows_space[(np.cumsum(value_len) - value_len)[value_len > 0]] = True
    kept = count(space) < value_len
    words = count(follows_space & ~space)
    has_digit = count((flags & _FLAG_DIGIT) > 0) > 0
    has_alpha = count((flags & _FLAG_ALPHA) > 0) > 0
    # str.isupper(): an upper-case character and none in lower or title case.
    is_upper = (count(upper) > 0) & (count(((flags & _FLAG_CASED) > 0) & ~upper) == 0)
    return kept, words, has_digit, has_alpha, is_upper
