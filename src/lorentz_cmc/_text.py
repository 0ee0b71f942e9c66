"""Float text shared by the OBJ and CSV writers."""

from __future__ import annotations

import numpy as np


def float_reprs(values) -> np.ndarray:
    """Shortest round-trip ``repr`` of every value, flattened, as an object array.

    ``repr`` runs once per distinct value: values are keyed by their int64
    bit pattern, so -0.0 and 0.0 keep their own text, and each string is
    indexed back into place.  Surface rings repeat one height per spoke,
    so a mesh has about half as many distinct coordinates as coordinates.
    """
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse]
