"""The invariant of a scale weight, read off its log table: every log value
is finite (the weight is positive and finite) and they never decrease in nu.
``spaces.weighted_sequence_space`` refuses any other weight."""

import numpy as np


def is_scale_weight(w) -> bool:
    logs = w.log_values
    return bool(np.isfinite(logs).all() and (np.diff(logs) >= 0).all())
