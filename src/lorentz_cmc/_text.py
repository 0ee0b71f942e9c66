"""Float text and block-wise record formatting shared by the OBJ and CSV writers."""

from __future__ import annotations

import io

import numpy as np

# Rows formatted per block by ``format_records``.
_ROWS = 4096


def distinct_reprs(values):
    """``(texts, inverse)``: the shortest round-trip ``repr`` of each distinct
    value, as an object array, and the index into it of every value, flattened.

    Values are keyed by their int64 bit pattern, so -0.0 and 0.0 keep their
    own text, and ``repr`` runs once per key.
    """
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object), inverse


def float_reprs(values) -> np.ndarray:
    """Shortest round-trip ``repr`` of every value, flattened, as an object
    array; ``repr`` runs once per distinct value (``distinct_reprs``).
    Surface rings repeat one height per spoke, so a mesh has about half as
    many distinct coordinates as coordinates.
    """
    texts, inverse = distinct_reprs(values)
    return texts[inverse]


def format_records(header: str, *sections) -> bytes:
    """ASCII bytes of ``header``, then of ``template % tuple(row)`` for each of
    the ``n_rows`` rows of each ``(template, n_rows, cells)`` section, where
    ``cells(rows)`` returns the array of the rows in the slice ``rows``; float
    cells as ``float_reprs`` text, integer cells as ints, object cells (text)
    as they are.

    Rows go ``_ROWS`` at a time (``cells``, ``float_reprs``, one ``%`` pass,
    ``encode``) into one buffer that is returned without a copy, so the
    memory used is the output plus one block.
    """
    out = io.BytesIO()
    out.write(header.encode("ascii"))
    for template, n_rows, cells in sections:
        for start in range(0, n_rows, _ROWS):
            block = np.asarray(cells(slice(start, start + _ROWS)))
            as_is = block.dtype.kind in "iuO"
            texts = block.ravel().tolist() if as_is else float_reprs(block).tolist()
            out.write((template * len(block) % tuple(texts)).encode("ascii"))
    return out.getvalue()
