"""Helpers shared by the test modules."""

import numpy as np

from scheme_forge.action import build_action
from scheme_forge.cyclo import CycloInt
from scheme_forge.duality import CodedArray

# each weak-Hamming family and the family on its dual poset
DUAL_FAMILY = {"weak_hamming": "weak_hamming_dual",
               "weak_hamming_dual": "weak_hamming"}


def poset_partner(genset):
    """The weak-Hamming family on the dual poset of `genset`'s, built by
    name: the oracle of the dual partition that duality_report reads off
    the adjoint images of a weak-Hamming action in self mode."""
    return build_action(genset.space, DUAL_FAMILY[genset.family],
                        **genset.params)


def all_digits(space):
    """The |X| x N array D of the digits of every point, row x = d(x), in
    the space's index dtype: the oracle of the space's digit decoder, from
    np.indices over its radices (first digit most significant)."""
    radices = space.radices
    return np.indices(radices, space.place.dtype).reshape(len(radices), -1).T


def plain(obj):
    """obj with every array, ndarray or CodedArray, as its tolist(): what
    json.dumps takes of a report or certificate that holds arrays."""
    if isinstance(obj, (np.ndarray, CodedArray)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


def coeff_array(entries):
    """Nested lists of CycloInt -> integer array of their coefficients,
    shape (..., phi(m)); int64 when every coefficient fits, else Python
    integers (the inverse of cyclo_entries)."""
    def coeffs(e):
        return e.coeffs if isinstance(e, CycloInt) else [coeffs(x) for x in e]
    nested = coeffs(entries)
    try:
        return np.array(nested, dtype=np.int64)
    except OverflowError:
        return np.array(nested, dtype=object)


def cyclo_entries(A, m):
    """Inverse of coeff_array for ndim >= 2: nested lists of CycloInt of
    order m, one object per entry (the oracle for the shared objects of
    duality.distinct_elements)."""
    n = A.shape[-1]
    flat = A.reshape(-1).tolist()
    entries = [CycloInt(m, tuple(flat[i:i + n]), reduce=False)
               for i in range(0, len(flat), n)]
    for size in reversed(A.shape[1:-1]):
        entries = [entries[i:i + size] for i in range(0, len(entries), size)]
    return entries
