"""Test functions for linear spectral statistics: polynomials and log."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FunctionalSpec:
    """A test function g: either a polynomial (coefficients ascending) or log.

    The log functional is admissible only when the spectrum stays away from
    zero (analyticity on a region containing the support).
    """

    kind: str
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("poly", "log"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "poly" and len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError(f"polynomial coefficients must be finite (got {self.coeffs!r})")

    @classmethod
    def poly(cls, coeffs) -> "FunctionalSpec":
        return cls(kind="poly", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def monomial(cls, degree: int) -> "FunctionalSpec":
        return cls.poly([0.0] * degree + [1.0])

    @classmethod
    def log(cls) -> "FunctionalSpec":
        return cls(kind="log")

    @classmethod
    def parse(cls, text: str) -> "FunctionalSpec":
        """Parse 'poly:c0,c1,...' or 'log'."""
        text = text.strip()
        if text == "log":
            return cls.log()
        if text.startswith("poly:"):
            try:
                coeffs = [float(tok) for tok in text[len("poly:"):].split(",")]
            except ValueError as exc:
                raise ValueError(f"bad polynomial spec {text!r}") from exc
            return cls.poly(coeffs)
        raise ValueError(f"cannot parse functional {text!r}")

    @property
    def label(self) -> str:
        if self.kind == "log":
            return "log"
        return "poly:" + ",".join(format(c, "g") for c in self.coeffs)

    @property
    def needs_positive_support(self) -> bool:
        return self.kind == "log"

    def __call__(self, x):
        if self.kind == "log":
            return np.log(x)
        # Horner evaluation, works for real or complex arrays
        acc = np.zeros_like(np.asarray(x) * 0.0) + self.coeffs[-1]
        for coef in reversed(self.coeffs[:-1]):
            acc = acc * x + coef
        return acc

