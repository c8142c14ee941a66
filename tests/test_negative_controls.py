"""Negative controls: each check fails on a fixed perturbation of its input
and passes without it.

Flip record. Each row patches ``sobolev_circle.fourier_gram_closed_form``,
the closed form that criterion 1 certifies against the trapezoid oracle,
and lists the defect it reads (tolerance 1e-8) and every criterion it
fails. Criterion 2 reads the log closed form, not this function, so it
passes under every row.

| control | criterion 1 defect | fails |
|---|---|---|
| none | 2.1e-16 | none |
| entry (10, 10, 2) times 1 + 1e-6 | 1.0e-6 | 1 |
| index map nu -> nu + 1 on the diagonal | 0.99998 | 1 |
| index map nu -> nu - 1 on the diagonal (1 stays 1) | 6.3e4 | 1 |
| entry (10, 10, 2) = 0 | inf | 1 |

Under nu -> nu + 1 only the constant moves, since the sine 2m and the
cosine 2m + 1 share the frequency m: its closed form reads the first
sine's norm 63127.9 where the oracle reads 1. Under nu -> nu - 1 every
sine reads the frequency below its own, and the first sine reads 1 where
the oracle reads 63127.9. Rows for the operator certificates and the
other criteria are still to be added.
"""

import math

import pytest

from scalehilbert import sobolev_circle
from scalehilbert.verify import criterion_sigma_witness, criterion_sobolev_oracle

closed_form = sobolev_circle.fourier_gram_closed_form


def at_entry(value):
    """The closed form with entry (10, 10, 2) replaced by value(entry)."""
    def patched(nu, nu_prime, k):
        entry = closed_form(nu, nu_prime, k)
        return value(entry) if (nu, nu_prime, k) == (10, 10, 2) else entry
    return patched


def index_map(shift):
    """The closed form with nu -> nu + shift on the diagonal, kept >= 1."""
    def patched(nu, nu_prime, k):
        if nu != nu_prime:
            return closed_form(nu, nu_prime, k)
        return closed_form(max(nu + shift, 1), max(nu + shift, 1), k)
    return patched


# name -> (patched closed form, defect low, defect high), measured on this code
CRITERION_1_CONTROLS = {
    "entry-times-1e-6": (at_entry(lambda d: d * (1 + 1e-6)), 0.99e-6, 1.01e-6),
    "index-plus-one": (index_map(1), 0.99998, 0.99999),
    "index-minus-one": (index_map(-1), 6.31e4, 6.32e4),
    "entry-zero": (at_entry(lambda d: 0.0), math.inf, math.inf),
}


@pytest.mark.parametrize("name", CRITERION_1_CONTROLS)
def test_criterion_1_control(monkeypatch, name):
    unperturbed = criterion_sobolev_oracle()
    assert unperturbed.passed and unperturbed.defect <= 1e-15
    patched, low, high = CRITERION_1_CONTROLS[name]
    monkeypatch.setattr(sobolev_circle, "fourier_gram_closed_form", patched)
    result = criterion_sobolev_oracle()
    assert not result.passed
    assert low <= result.defect <= high
    assert criterion_sigma_witness().passed
