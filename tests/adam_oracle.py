"""The array Adam state the numpy oracles step.

training.AdamState holds its moments as lists of Python floats, which
adam_update steps in place.  The oracles that stand for the numpy forms of
adam_update build whole new moment arrays each step, so they keep the state
as it was when the moments were arrays: ``ArrayAdamState``.
"""

from dataclasses import dataclass

import numpy as np

from fairpair.training import AdamState


@dataclass(eq=False)
class ArrayAdamState:
    """First/second moment arrays and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "ArrayAdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def both_states(m, v, t):
    """The same moments and step as adam_update's state and as the oracles'."""
    return AdamState(m.tolist(), v.tolist(), t), ArrayAdamState(m.copy(), v.copy(), t)
