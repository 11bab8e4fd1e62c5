"""Three element stacks from items drawn triple by triple.

The axiom suite takes the stacks ``a``, ``b`` and ``c``, item k of each
being the k-th triple.  The tests draw ``a_0, b_0, c_0, a_1, ...`` in that
order, so one stack of the draws, read with stride 3, gives the three stacks
without building a list of triples.
"""

import numpy as np


def triple_stacks(items):
    """The stacks ``a, b, c`` of the items ``a_0, b_0, c_0, a_1, b_1, c_1, ...``."""
    items = np.stack(list(items))
    return items[0::3], items[1::3], items[2::3]
