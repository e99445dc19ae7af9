"""Built-in vector fields for the command line, plus polynomial fields
declared in a config file.

A polynomial field lists, per state component, monomial terms
{"coeff": c, "x": [i1, ..., in], "u": [j1, ..., jp]} meaning
c * prod x_k^{i_k} * prod u_k^{j_k}, with nonnegative integer powers;
partials are formed by the power rule, so the jacobians are exact.
Each term keeps only its nonzero powers, and f, f_x and f_u multiply
those, one power each, in Python floats from x.tolist() and u.tolist():
a term costs its own powers, not the width of (x, u). A monomial that
overflows is the IEEE inf (or nan), which the flow refuses.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .nonlinear import VectorField


def pendulum() -> VectorField:
    """Torque-driven pendulum theta'' + sin(theta) = u in first-order form
    (unit mass and gravity)."""

    def f(x, u):
        return np.array([x[1], -math.sin(x[0]) + u[0]])

    def fx(x, u):
        return np.array([[0.0, 1.0], [-math.cos(x[0]), 0.0]])

    def fu(x, u):
        return np.array([[0.0], [1.0]])

    return VectorField(state_dim=2, control_dim=1, f=f, fx=fx, fu=fu)


def double_integrator() -> VectorField:
    def f(x, u):
        return np.array([x[1], u[0]])

    def fx(x, u):
        return np.array([[0.0, 1.0], [0.0, 0.0]])

    def fu(x, u):
        return np.array([[0.0], [1.0]])

    return VectorField(state_dim=2, control_dim=1, f=f, fx=fx, fu=fu)


def _term_powers(values, size: int, offset: int) -> tuple:
    """The (offset + index, power) pairs of one term's nonzero powers."""
    try:
        values = list(values)
    except TypeError:
        raise ValueError("term powers must be lists of integers") from None
    if len(values) != size:
        raise ValueError("term powers must match state/control dims")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"powers must be nonnegative integers, got {v!r}")
    return tuple((offset + k, int(v)) for k, v in enumerate(values) if v)


def _monomial(z: list, powers: tuple) -> float:
    """The product of z[k] ** e over the (k, e) in powers, one power each.

    A power that overflows is +-inf, as IEEE pow gives it, where Python's
    float ** int raises OverflowError.
    """
    m = 1.0
    for k, e in powers:
        try:
            m *= z[k] ** e
        except OverflowError:
            m *= math.copysign(math.inf, z[k]) if e % 2 else math.inf
    return m


def _dimension(decl: dict, key: str) -> int:
    """decl[key] as a positive integer; a bool, float or null is refused."""
    if key not in decl:
        raise ValueError(f"field declaration is missing {key!r}")
    v = decl[key]
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return int(v)


def polynomial_field(decl: dict) -> VectorField:
    if not isinstance(decl, dict):
        raise ValueError(f"a field declaration must be an object with state_dim, "
                         f"control_dim and rhs, got {decl!r}")
    n = _dimension(decl, "state_dim")
    p = _dimension(decl, "control_dim")
    if "rhs" not in decl:
        raise ValueError("field declaration is missing 'rhs'")
    rhs = decl["rhs"]
    if not (isinstance(rhs, list) and len(rhs) == n and all(isinstance(c, list) for c in rhs)):
        raise ValueError(f"rhs must be a list of {n} term lists, one per state component")
    # Each term is (component, coeff, its nonzero powers of z = (x, u));
    # each partial is (component, column, coeff, power, the powers that
    # remain after the power rule), split into the x and the u columns.
    terms, dx, du = [], [], []
    for i, comp in enumerate(rhs):
        for term in comp:
            if not isinstance(term, dict):
                raise ValueError(f"a term must be an object with coeff, x and u, got {term!r}")
            powers = (_term_powers(term.get("x", [0] * n), n, 0)
                      + _term_powers(term.get("u", [0] * p), p, n))
            c = term.get("coeff")
            if type(c) not in (int, float) or not abs(c) <= sys.float_info.max:  # not bool
                raise ValueError(f"term coeff must be a finite number, got {c!r}")
            c = float(c)
            terms.append((i, c, powers))
            for k, e in powers:
                lowered = tuple((j, d - (j == k)) for j, d in powers if d - (j == k))
                (dx if k < n else du).append((i, k if k < n else k - n, c, e, lowered))

    def f(x, u):
        z = x.tolist() + u.tolist()
        out = [0.0] * n
        for i, c, powers in terms:
            out[i] += c * _monomial(z, powers)
        return np.array(out)

    def _partials(x, u, grads, cols):
        z = x.tolist() + u.tolist()
        out = [[0.0] * cols for _ in range(n)]
        for i, k, c, e, lowered in grads:
            out[i][k] += c * (e * _monomial(z, lowered))
        return np.array(out)

    def fx(x, u):
        return _partials(x, u, dx, n)

    def fu(x, u):
        return _partials(x, u, du, p)

    return VectorField(state_dim=n, control_dim=p, f=f, fx=fx, fu=fu)


# name -> (builder, default equilibrium state, default equilibrium control)
BUILTIN_FIELDS = {
    "pendulum": (pendulum, (math.pi, 0.0), (0.0,)),
    "double_integrator": (double_integrator, (0.0, 0.0), (0.0,)),
}


def get_field(name: str, config_fields: dict | None = None):
    """Resolve a field name to (VectorField, default_xeq, default_ueq).

    Config-declared polynomial fields have no default equilibrium; the
    caller must supply one.
    """
    if name in BUILTIN_FIELDS:
        builder, xeq, ueq = BUILTIN_FIELDS[name]
        return builder(), np.array(xeq), np.array(ueq)
    if config_fields and name in config_fields:
        return polynomial_field(config_fields[name]), None, None
    known = sorted(BUILTIN_FIELDS) + sorted(config_fields or ())
    raise KeyError(f"unknown vector field {name!r}; known fields: {known}")
