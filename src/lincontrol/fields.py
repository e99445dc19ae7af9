"""Built-in vector fields for the command line, plus polynomial fields
declared in a config file.

A polynomial field lists, per state component, monomial terms
{"coeff": c, "x": [i1, ..., in], "u": [j1, ..., jp]} meaning
c * prod x_k^{i_k} * prod u_k^{j_k}; partials are formed by the power
rule, so the jacobians are exact.
"""

from __future__ import annotations

import math

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


def polynomial_field(decl: dict) -> VectorField:
    n = int(decl["state_dim"])
    p = int(decl["control_dim"])
    rhs = decl["rhs"]
    if len(rhs) != n:
        raise ValueError(f"rhs must list {n} components, got {len(rhs)}")
    rows, coeffs, powers = [], [], []
    for i, comp in enumerate(rhs):
        for term in comp:
            xpow = np.asarray(term.get("x", [0] * n), dtype=int)
            upow = np.asarray(term.get("u", [0] * p), dtype=int)
            if xpow.size != n or upow.size != p:
                raise ValueError("term powers must match state/control dims")
            if np.any(xpow < 0) or np.any(upow < 0):
                raise ValueError("powers must be nonnegative")
            rows.append(i)
            coeffs.append(float(term["coeff"]))
            powers.append(np.concatenate([xpow, upow]))
    # Terms are stacked once: E holds the powers of z = (x, u) per term, S
    # scatters coefficient-weighted monomials onto their components, and
    # lowered[t, k] is E[t] with the k-th power reduced by the power rule
    # (clipped at 0, where the factor E[t, k] is 0 anyway).
    E = np.array(powers, dtype=int).reshape(-1, n + p)
    S = np.zeros((n, E.shape[0]))
    S[rows, np.arange(E.shape[0])] = coeffs
    lowered = np.maximum(E[:, None, :] - np.eye(n + p, dtype=int), 0)

    def _partials(x, u, cols):
        z = np.concatenate((x, u))
        return S @ (E[:, cols] * np.multiply.reduce(z ** lowered[:, cols], axis=2))

    def f(x, u):
        return S @ np.multiply.reduce(np.concatenate((x, u)) ** E, axis=1)

    def fx(x, u):
        return _partials(x, u, slice(0, n))

    def fu(x, u):
        return _partials(x, u, slice(n, n + p))

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
