"""Unit helpers used across the library.

Internally everything is SI (volts, amperes, farads, hertz, watts, metres,
radians).  The helpers here convert between SI and the "designer" units that
analog specifications are quoted in (dB, MHz, degrees, mW, um).

The functions are intentionally tiny and NumPy-friendly: every function
accepts scalars or arrays and returns the same shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "db",
    "db_to_ratio",
    "ratio_to_db",
    "deg",
    "rad",
]


def ratio_to_db(ratio):
    """Convert a voltage gain ratio to decibels (20*log10).

    Values at or below zero map to ``-inf`` rather than raising, which keeps
    vectorised yield evaluation branch-free (a non-positive gain simply fails
    any dB spec).
    """
    ratio = np.asarray(ratio, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 20.0 * np.log10(np.where(ratio > 0.0, ratio, np.nan))
    out = np.where(np.isnan(out), -np.inf, out)
    if out.ndim == 0:
        return float(out)
    return out


def db_to_ratio(value_db):
    """Convert decibels to a voltage gain ratio (inverse of ratio_to_db)."""
    value_db = np.asarray(value_db, dtype=float)
    out = np.power(10.0, value_db / 20.0)
    if out.ndim == 0:
        return float(out)
    return out


# ``db`` reads naturally at call sites: db(gain_ratio) -> dB value.
db = ratio_to_db


def deg(radians):
    """Convert radians to degrees."""
    out = np.degrees(np.asarray(radians, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def rad(degrees):
    """Convert degrees to radians."""
    out = np.radians(np.asarray(degrees, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out
