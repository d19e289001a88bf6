"""Code sets as masks and element lists, for comparison with naive
definitions.

A CodeSet holds only its canonical form, so the tests enumerate its
elements from the form, and build a set from a mask by the form of its
elements, refusing a mask that is not an additive subgroup.
"""

import numpy as np

from glab.ideals import CodeSet


def mask_of(code: CodeSet) -> np.ndarray:
    """The set as a boolean mask over RG."""
    return code.alg.subgroup_mask(code.form)


def elements_of(code: CodeSet) -> np.ndarray:
    """The elements of the set, ascending."""
    return np.flatnonzero(mask_of(code))


def code_of(alg, mask: np.ndarray, side=None) -> CodeSet:
    """The set of a mask, which must hold 0 and be additively closed:
    the subgroup its elements generate has no more elements."""
    elems = np.flatnonzero(mask)
    form = alg.subgroup_form(elems)
    assert mask[0] and alg.subgroup_sizes(form[None])[0] == len(elems)
    return CodeSet(alg, form, side)
