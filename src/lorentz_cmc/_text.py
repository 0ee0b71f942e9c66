"""Number text for the OBJ and CSV writers and readers: the shortest
round-trip ``repr`` of each distinct value, block-wise record formatting,
the float of each distinct field text (``parse_floats``) and the int64 of
each field (``parse_ints``), both as numpy's text reader reads them.  Also
the front end of both readers (``load_obj``, ``patch_from_csv``):
``text_bytes`` makes their input bytes past a byte-order mark, and
``read_blocks`` hands a format's block parser the text a block of lines at
a time and names the line of a field it rejects."""

from __future__ import annotations

import bisect
import io
import re

import numpy as np

from ._parallel import _each

# Rows formatted per block by ``format_records``.
_ROWS = 4096
# A float's sign bit, the other bits, and the largest of those that are not a nan.
_SIGN = np.int64(-1 << 63)
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_INF = np.int64(0x7FF0_0000_0000_0000)
# Bytes of text handed to a reader's block parser at a time, cut at the next
# line end; one block in flight per thread, and a 128^2 OBJ makes six.
_BLOCK = 1 << 18
# Fields longer than this many 8-byte words are parsed one at a time.
_WORDS = 8
# _MASKS[k] keeps the first k bytes of a word.
_MASKS = np.frombuffer(b"".join(b"\xff" * k + bytes(8 - k) for k in range(9)), dtype=np.uint64)
# An int64 field as numpy's text reader spells one.
_INT = re.compile(rb"[+-]?[0-9]+")
# Bytes on which numpy's bytes->float64 cast and numpy's text reader may
# differ: controls (CR, and whitespace the reader strips but the cast does
# not), '"', '_' (the cast reads 1_0 as 10) and non-ASCII (latin-1 spaces).
_SPECIAL = np.zeros(256, dtype=bool)
_SPECIAL[1:32] = _SPECIAL[128:] = True
_SPECIAL[[ord('"'), ord("_")]] = True


class BadField(ValueError):
    """A field or record a block parser rejects: args (its offset in the text, why, its bytes)."""


def text_bytes(data):
    """``(data, start)``: the text as bytes, a str encoded as UTF-8, and the
    offset past one leading UTF-8 byte-order mark (0 if there is none)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return data, 3 if data.startswith(b"\xef\xbb\xbf") else 0


def read_blocks(data, start, parse, what="", hidden=()):
    """``[parse(data, a, b), ...]`` over the blocks ``a:b`` of ``data[start:]``,
    each ending at the first line end ``_BLOCK`` bytes or more past its start
    (the last at the end of the data).  All bounds are cut first; the blocks
    are then parsed on the calling thread and one helper (``_parallel._each``),
    so ``parse`` is called from two threads at once and the working memory
    is one block's per thread.

    The first ``BadField(offset, why, text)`` in text order that ``parse``
    raises becomes the ValueError ``"{what}{why} at line {n}: {text!r}"``,
    n the 1-based line of ``offset``, also counting each line end that
    ``data`` no longer holds at an offset in ``hidden`` (sorted) up to
    ``offset``.
    """
    bounds = [start]
    while bounds[-1] < len(data):
        bounds.append(data.find(b"\n", bounds[-1] + _BLOCK) + 1 or len(data))
    parts = [None] * (len(bounds) - 1)

    def block(i):
        parts[i] = parse(data, bounds[i], bounds[i + 1])

    try:
        _each(block, len(parts))
    except BadField as exc:
        at, why, text = exc.args
        line = data.count(b"\n", 0, at) + 1 + bisect.bisect_right(hidden, at)
        raise ValueError(f"{what}{why} at line {line}: {text!r}") from None
    return parts


def distinct_reprs(values):
    """``(texts, inverse)``: the shortest round-trip ``repr`` of the values,
    ASCII-encoded, as an object array of bytes, and the index into it of
    every value, flattened.

    Values are keyed by their int64 bit pattern with the sign bit cleared (a
    nan keeps its own bits: its text has no sign), and ``repr`` runs once per
    key.  The text of a negative value is ``b"-"`` and that of its
    magnitude, as ``repr`` spells every signed float but nan.  Counts over
    the keys of the negative values find the magnitudes that occur
    negative: one that occurs with both signs gets its negative text
    appended to the table, and ``repr`` spells one that occurs only
    negative from its negative value, so the table holds one text per
    distinct signed value (a twin for each magnitude of an all-negative
    patch would take ``patch_to_csv`` 1.9 MB past its memory bound).
    """
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
    keys = bits & _MAGNITUDE
    # a nan keeps its bits: with the sign bit set it occurs only negative, and reads "nan"
    np.copyto(keys, bits, where=keys > _INF)
    keys, inverse = np.unique(keys, return_inverse=True)
    neg = bits < 0
    at = inverse[neg]
    negatives = np.bincount(at, minlength=keys.size)
    alone = negatives == np.bincount(inverse, minlength=keys.size)
    keys[alone] |= _SIGN
    texts = [repr(v).encode() for v in keys.view(np.float64).tolist()]
    twins = np.flatnonzero((negatives > 0) & ~alone)
    # the index of each value's text: a twin's after every magnitude's
    slot = np.arange(keys.size, dtype=inverse.dtype)
    slot[twins] = np.arange(keys.size, keys.size + twins.size)
    inverse[neg] = slot[at]
    texts += [b"-" + texts[k] for k in twins.tolist()]
    return np.array(texts, dtype=object), inverse


def float_reprs(values) -> np.ndarray:
    """Shortest round-trip ``repr`` of every value, ASCII-encoded and
    flattened, as an object array of bytes; ``repr`` runs once per distinct
    magnitude (``distinct_reprs``).  Surface rings repeat one height per
    spoke and mirrored spokes share their x and y bits up to sign, so
    figure 4's mesh at 256^2 has 16,577 distinct magnitudes among its
    195,843 coordinates (8.5%).
    """
    texts, inverse = distinct_reprs(values)
    return texts[inverse]


def format_records(header: str, *sections) -> bytes:
    """ASCII bytes of ``header``, then of ``template % tuple(row)`` for each of
    the ``n_rows`` rows of each ``(template, n_rows, cells)`` section, where
    ``cells(rows)`` returns the array of the rows in the slice ``rows``; float
    cells as ``float_reprs`` text, integer cells as ints, object cells as
    they are (ASCII bytes, such as ``distinct_reprs`` texts).

    Each template is encoded once per section; rows then go ``_ROWS`` at a
    time (``cells``, ``float_reprs``, one bytes ``%`` pass) into one buffer
    that is returned without a copy, so the memory used is the output plus
    one block.
    """
    out = io.BytesIO()
    out.write(header.encode("ascii"))
    for template, n_rows, cells in sections:
        template = template.encode("ascii")
        for start in range(0, n_rows, _ROWS):
            block = np.asarray(cells(slice(start, start + _ROWS)))
            as_is = block.dtype.kind in "iuO"
            texts = block.ravel().tolist() if as_is else float_reprs(block).tolist()
            out.write(template * len(block) % tuple(texts))
    return out.getvalue()


def _field_float(field: bytes) -> float:
    """The float of one field as numpy's text reader reads it: a Python
    float spelling (inf/infinity/nan in any case, signed or not), with
    latin-1 whitespace around it and no '_' or CR; ValueError otherwise."""
    text = field.decode("latin-1").strip()
    if b"_" in field or b"\r" in field or not text.isascii():
        raise ValueError(f"could not convert {field!r} to float")
    return float(text)


def _key(words):
    """One uint64 per column of ``words`` (8-byte words by field, (width,
    fields)), equal for equal columns; unequal ones may share a key."""
    key = words[0].copy()
    for row in words[1:]:
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= row
    return key


def _one_by_one(text, starts, ends):
    """``parse_floats`` with ``_field_float`` on every field."""
    values = np.empty(len(starts))
    for k, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        try:
            values[k] = _field_float(text[a:b])
        except ValueError:
            raise BadField(a, "field is not a number", text[a:b]) from None
    return values


def _words(text, starts, ends, width):
    """The bytes of each field, zero-padded to ``width`` 8-byte words, as a
    (width, fields) uint64 array."""
    # the span of the fields, zero-padded so that every word read lies in it
    lo = starts[0]
    padded = np.zeros(ends[-1] - lo + 8 * width, dtype=np.uint8)
    padded[:ends[-1] - lo] = np.frombuffer(text, dtype=np.uint8, count=ends[-1] - lo, offset=lo)
    at = np.ndarray((padded.size - 7,), dtype=np.uint64, buffer=padded, strides=(1,))
    words = np.empty((width, starts.size), dtype=np.uint64)
    for j, row in enumerate(words):
        row[:] = at[starts - lo + 8 * j]
        row &= _MASKS[np.clip(ends - starts - 8 * j, 0, 8)]
    return words


def _distinct_floats(text, starts, ends, width):
    """``parse_floats`` through the distinct field texts; None when two
    distinct texts share a key or a text does not parse."""
    words = _words(text, starts, ends, width)
    keys, inverse = np.unique(_key(words), return_inverse=True)
    # one field of each key; every field must match its words exactly
    chosen = np.empty(keys.size, dtype=np.intp)
    chosen[inverse] = np.arange(inverse.size)
    same = chosen[inverse]
    if not all(np.array_equal(row[same], row) for row in words):
        return None
    distinct = np.ascontiguousarray(words.T[chosen])
    texts = distinct.view(f"S{8 * width}").ravel()  # zero padding drops off
    plain = ~_SPECIAL[distinct.view(np.uint8)].any(axis=1)
    values = np.empty(texts.size)
    try:
        values[plain] = texts[plain].astype(np.float64)
        values[~plain] = [_field_float(t) for t in texts[~plain].tolist()]
    except ValueError:
        return None
    return values[inverse]


def _nul_in_a_field(text, starts, ends):
    """Whether a NUL byte lies inside one of the fields (in text order)."""
    at = text.find(b"\0", starts[0], ends[-1])
    if at < 0:
        return False
    nul = at + np.flatnonzero(np.frombuffer(text, np.uint8, ends[-1] - at, at) == 0)
    return bool((nul < ends[np.searchsorted(starts, nul, side="right") - 1]).any())


def parse_floats(text: bytes, starts, ends) -> np.ndarray:
    """The float of each field ``text[starts[k]:ends[k]]`` (fields in text
    order), as ``_field_float`` reads it; a field that does not parse raises
    ``BadField``, the first such field if several do.

    Each field's bytes become zero-padded 8-byte words, the words one
    integer key (``_key``), and ``np.unique`` on the keys gives the distinct
    texts and each field's index into them; only the distinct texts are
    converted, by numpy's bytes->float64 cast (correctly rounded, as
    ``float``) or, where it may differ from numpy's text reader
    (``_SPECIAL``), by ``_field_float``.  Correctness does not rest on the
    key: every field's words are compared with those of its text.  On a
    mismatch, on a text that does not parse, or with a NUL byte inside a
    field (the words' zero padding would hide it) or a field longer than
    ``_WORDS`` words, every field is parsed one at a time, and the first
    that does not parse is named.
    """
    starts, ends = np.asarray(starts, dtype=np.intp), np.asarray(ends, dtype=np.intp)
    if not starts.size:
        return np.zeros(0)
    width = max(1, -(-int((ends - starts).max()) // 8))
    if width <= _WORDS and not _nul_in_a_field(text, starts, ends):
        values = _distinct_floats(text, starts, ends, width)
        if values is not None:
            return values
    return _one_by_one(text, starts, ends)


def _field_int(field: bytes) -> int:
    """The int of one field as numpy's text reader reads an int64: an
    optional sign, then ASCII digits only, in range; ValueError otherwise."""
    if _INT.fullmatch(field) is None or not -1 << 63 <= int(field) < 1 << 63:
        raise ValueError(f"could not convert {field!r} to int64")
    return int(field)


def _byte(value):
    """``value`` in each byte of a uint64."""
    return np.uint64(value * 0x0101010101010101)


def parse_ints(text: bytes, starts, ends) -> np.ndarray:
    """The int64 of each field ``text[starts[k]:ends[k]]`` (index arrays of
    one shape, fields in text order when flattened), as ``_field_int``
    reads it; a field that does not parse raises ``BadField``, the first
    such field if several do.

    A field of at most 8 bytes that ends 8 or more bytes into the text is
    read from the one little-endian 8-byte word that ends with it (SWAR,
    after Lemire, "Number parsing at a gigabyte per second", Softw. Pract.
    Exp. 51, 2021): each byte is made its digit value, the bytes before the
    field are shifted out, every byte is checked to be a digit, and three
    multiplies combine them into the number, in place in the returned
    array.  Any other field, and any that is not all digits, goes through
    ``_field_int``.
    """
    starts, ends = np.asarray(starts), np.asarray(ends)
    if len(text) < 8:
        values, simple = np.zeros(ends.shape, dtype=np.int64), np.zeros(ends.shape, dtype=bool)
    else:
        at = np.subtract(ends, 8, dtype=np.intp)
        simple = at >= 0
        np.maximum(at, 0, out=at)
        # the word ending at each field's end (the text's first 8 bytes if it ends sooner)
        words = np.ndarray((len(text) - 7,), dtype="<u8", buffer=text,
                           strides=(1,))[at].astype(np.uint64, copy=False)
        values = words.view(np.int64)
        del at
        width = ends - starts
        simple &= width <= 8
        np.minimum(width, 8, out=width)
        # shifting the bytes before the field out and back in makes them 0
        shift = (64 - 8 * width).astype(np.uint8)
        del width
        words ^= _byte(ord("0"))  # each byte of the field its digit value, if it is a digit
        words >>= shift
        words <<= shift
        del shift
        check = words + _byte(0x76)
        check |= words
        check &= _byte(0x80)  # the top bit of each byte above 9
        simple &= check == 0
        del check
        # digit pairs, then groups of 4, then all 8, the first digit the most significant
        for multiplier, bits, lanes in ((2561, 8, 0x00FF00FF00FF00FF),
                                        (6553601, 16, 0x0000FFFF0000FFFF),
                                        (42949672960001, 32, None)):
            words *= np.uint64(multiplier)
            words >>= np.uint64(bits)
            if lanes:
                words &= np.uint64(lanes)
    flat = values.reshape(-1)
    for k in np.flatnonzero(~simple).tolist():
        a, b = int(starts.flat[k]), int(ends.flat[k])
        try:
            flat[k] = _field_int(text[a:b])
        except ValueError:
            raise BadField(a, "field is not an integer", text[a:b]) from None
    return values
