"""Shared test helpers: hypothesis profile, in-ball point samplers and the
regularity modulus for d^q.

The samplers place points at a chosen geodesic distance from a center by
walking along a random ray (`ray_point`), which keeps the sampled radius
exact by construction in every space.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings

from fejerlab import rng
from fejerlab.problems import regularity_modulus_for
from fejerlab.spaces import (
    EuclideanDir,
    HalfPlaneIdealPoint,
    Point,
    TripodEnd,
    ray_point,
    space_of,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_direction(center: Point, state: rng.RngState):
    """Draw a random ray direction usable from `center`.

    Euclidean: normalized Gaussian vector (Box-Muller); tripod: a random
    end; half-plane: the vertical end or a random finite boundary point.
    """
    space = space_of(center)
    if space == "euclidean":
        dim = len(center.coords)
        while True:
            vec = []
            for _ in range(dim):
                u1, state = rng.next_uniform(state)
                u2, state = rng.next_uniform(state)
                vec.append(
                    math.sqrt(-2.0 * math.log(1.0 - u1))
                    * math.cos(2.0 * math.pi * u2)
                )
            nrm = math.sqrt(sum(c * c for c in vec))
            if nrm > 1e-6:
                return EuclideanDir(tuple(c / nrm for c in vec)), state
    if space == "tripod":
        u, state = rng.next_uniform(state)
        return TripodEnd(min(2, int(3.0 * u))), state
    if space == "halfplane":
        u, state = rng.next_uniform(state)
        if u < 0.5:
            return HalfPlaneIdealPoint(None), state
        v, state = rng.next_uniform(state)
        return HalfPlaneIdealPoint(center.x + 8.0 * (v - 0.5)), state
    raise ValueError(f"unknown space {space!r}")


def ball_point(center: Point, radius: float, state: rng.RngState):
    """A point at distance exactly r from `center`, r uniform on [0, radius]."""
    u, state = rng.next_uniform(state)
    direction, state = random_direction(center, state)
    r = radius * u
    return ray_point(center, direction, r), state


def random_weights(k: int, state: rng.RngState):
    """k positive weights summing to one (up to float rounding)."""
    raw = []
    for _ in range(k):
        u, state = rng.next_uniform(state)
        raw.append(0.05 + u)
    total = math.fsum(raw)
    return [w / total for w in raw], state


def modulus_for_power(problem, q: int):
    """(tau, radius): a regularity modulus for d^q, tau(d^q(x, S)) <= F(x)
    within the radius of the solution anchor.  For q = 2 it is the
    certificate's, slope * t; for q = 1 it is c t^p from the growth F >= c
    d^p (p = 2 for quadratic growth, 1 for sharp), which holds everywhere."""
    if q == 2:
        tagged = regularity_modulus_for(problem)
        return (lambda t: tagged.slope * t), tagged.region
    shape, c = problem.growth
    p = 2.0 if shape == "quadratic" else 1.0
    return (lambda t: c * t ** p), math.inf
