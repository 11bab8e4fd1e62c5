"""The operation kinds of the ``ops-*`` mixes, as calls into gyromean.

Each kind looks its function up on the ``gyromean`` package at call time, so
a tracer that rebinds the package's names sees every call.
"""

from __future__ import annotations

import numpy as np

import gyromean as gm

from inputs import GEODESIC_SAMPLES, MixSpec

GEODESIC_TS = [float(s) for s in np.linspace(0.0, 1.0, GEODESIC_SAMPLES)]


def _geodesic9(o):
    """What ``gyromean geodesic --samples 9`` computes, for both curves."""
    return ([gm.gyroline(s, o.A, o.B) for s in GEODESIC_TS],
            [gm.cogyroline(s, o.A, o.B) for s in GEODESIC_TS])


KINDS = {
    "geo_mean": lambda o: gm.geo_mean(o.A, o.B, o.t),
    "spectral_mean": lambda o: gm.spectral_mean(o.A, o.B, o.t),
    "thompson": lambda o: gm.distance("thompson", o.A, o.B),
    "riemannian": lambda o: gm.distance("riemannian", o.A, o.B),
    "semimetric_op": lambda o: gm.distance("semimetric_op", o.A, o.B),
    "semimetric_frob": lambda o: gm.distance("semimetric_frob", o.A, o.B),
    "gyration": lambda o: gm.gyration(o.A, o.B, o.X),
    "cooperation": lambda o: gm.cooperation(o.A, o.B),
    "gyroline": lambda o: gm.gyroline(o.t, o.A, o.B),
    "cogyroline": lambda o: gm.cogyroline(o.t, o.A, o.B),
    "dens_gyroline": lambda o: gm.dens_gyroline(o.t, o.rho, o.sigma),
    "dens_cogyroline": lambda o: gm.dens_cogyroline(o.t, o.rho, o.sigma),
    "qubit_geo_mean": lambda o: gm.qubit_geo_mean(o.u, o.v, o.t),
    "qubit_spectral_mean": lambda o: gm.qubit_spectral_mean(o.u, o.v, o.t),
    "geodesic9": _geodesic9,
}

MIXES = {
    "ops-n2": MixSpec(dim=2, cond=1e2, pinned=False, qubit=True),
    "ops-n8-illcond": MixSpec(dim=8, cond=1e4, pinned=True, qubit=False),
}


def kinds_for(spec: MixSpec) -> list[str]:
    return [k for k in KINDS if spec.qubit or not k.startswith("qubit_")]
