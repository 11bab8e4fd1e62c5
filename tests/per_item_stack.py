"""A stack of generators, one per item: the oracle of the stack-generic samplers.

A draw stacks what each item's own generator draws, so a sampler given this
stack must return, item by item, what the single calls on those generators
return.  The library's ``randgen.GeneratorStack`` draws every item from one
generator instead; the sampler bodies do not tell the two apart.
"""

import numpy as np


class PerItemStack:
    """One generator per item of a stack; a draw stacks the items' own draws."""

    def __init__(self, generators):
        self.generators = np.array(generators, dtype=object)

    def standard_normal(self, size=None) -> np.ndarray:
        return np.array([g.standard_normal(size) for g in self.generators])

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.array([g.uniform(low, high, size) for g in self.generators])
