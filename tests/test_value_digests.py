"""Same results: one sha256 per layer of the library's values, committed in
value_digests.json.

Each layer is computed at fixed sizes and points and hashed: a float by
its 8 bytes, a Fraction by numerator and denominator, an int by its hex
digits, an amplitude polynomial by its nonzero (order, coefficient) pairs
and a dataclass by its fields, every item tagged and length-prefixed so
no two values hash alike. A layer whose digest differs from the committed
one is named in the failure.

Every input is built from Python's seeded `random` and IEEE arithmetic
(+, -, *, /, sqrt), which give the same bits on every platform; the
series and the exact routes are integer arithmetic. The grid route's
order N comes from a libm `**`, so of these layers only its digest, with
the Dirac report that reads the grid route (and a libm log2), can move
across platforms.

A change that deliberately replaces a float algorithm updates its
layer's entry and names the layer and the reason in the change log.
Running this file as a script prints every layer's current digest, in the
form of value_digests.json:

    PYTHONPATH=src python tests/test_value_digests.py
"""

import dataclasses
import hashlib
import json
import random
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from checkerboard import (AmplitudePolynomial, Direction, LatticeSpec,
                          LinearSpec, Region, SpacetimePoint,
                          apply_boost, bessel_j0, bessel_j1, boost,
                          closed_matrix, count_paths, dirac_residual,
                          exact_component, exact_parts, j0_j1_values,
                          linear_component, proper_time,
                          sector_sum_bruteforce, velocity_spectrum)

DIGESTS = Path(__file__).with_name("value_digests.json")
SIDES = range(1, 25)  # P, Q of the exact layers
T = Fraction(7, 3)
SECTORS = [(start, end) for start in Direction for end in Direction]
WALKED = [(P, Q) for P in range(1, 12) for Q in range(1, 13 - P)]  # 66


def _feed(h, value) -> None:
    if isinstance(value, int):
        h.update(b"i%x;" % value)
    elif isinstance(value, Fraction):
        h.update(b"q%x/%x;" % (value.numerator, value.denominator))
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, complex):
        h.update(b"c" + struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, str):
        h.update(b"s%x:" % len(value) + value.encode())
    elif isinstance(value, np.ndarray):
        h.update(b"a%r" % (value.shape,)
                 + value.astype("<f8", casting="equiv").tobytes())
    elif isinstance(value, AmplitudePolynomial):
        h.update(b"p%s." % b";".join(b"%x*%x" % (k, value.coeff(k))
                                    for k in value.orders()))
    elif dataclasses.is_dataclass(value):
        _feed(h, {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)})
    elif isinstance(value, dict):
        h.update(b"d%x:" % len(value))
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    elif isinstance(value, (list, tuple)):
        h.update(b"l%x:" % len(value))
        for item in value:
            _feed(h, item)
    else:
        raise TypeError(f"no digest for {type(value).__name__}")


def _points(count: int) -> list[tuple[float, float]]:
    """Seeded (t, x) inside the light cone, s = sqrt(t^2 - x^2) < 20."""
    rng = random.Random(17)
    points = []
    for _ in range(count):
        t = rng.uniform(0.001, 20.0)
        points.append((t, t * rng.uniform(-0.99, 0.99)))
    return points


def layers() -> dict[str, object]:
    """Each layer's values, as its digest hashes them."""
    points = _points(2000)
    series = [50.0 * i / 2000 for i in range(2001)]
    boosts = [boost(p, q) for p in range(-6, 7) for q in range(-6, 7)
              if p and q]
    event = SpacetimePoint(Fraction(5), Fraction(3))
    return {
        "exact_parts.quadratic": [exact_parts(LatticeSpec(P, Q, T))
                                  for P in SIDES for Q in SIDES],
        "exact_parts.linear": [exact_parts(LinearSpec(P, Q, T))
                               for P in SIDES for Q in SIDES],
        "sector_rows.quadratic": [exact_component(P, Q, *sector)
                                  for P in SIDES for Q in SIDES
                                  for sector in SECTORS],
        "sector_rows.linear": [linear_component(P, Q, *sector)
                               for P in SIDES for Q in SIDES
                               for sector in SECTORS],
        "walk": [sector_sum_bruteforce(P, Q, *sector)
                 for P, Q in WALKED for sector in SECTORS],
        "count_paths": [count_paths(P, Q, *sector, R)
                        for P in range(13) for Q in range(13)
                        for sector in SECTORS for R in range(P + Q + 1)],
        "proper_time": [proper_time(t, x) for t, x in points],
        "closed_matrix": [closed_matrix(t, x) for t, x in points],
        "bessel_series": [(bessel_j0(s), bessel_j1(s)) for s in series],
        "bessel_grid": j0_j1_values(np.array([50.0 * i / 4000
                                                for i in range(4001)])),
        "dirac_report": dirac_residual(Region(0.5, 3.0, 0.4), 0.04),
        "velocity_spectrum": velocity_spectrum(24),
        "boosts": [(b, b.a11, b.a12, b.velocity, b.determinant,
                    apply_boost(b, event)) for b in boosts],
    }


def digests() -> dict[str, str]:
    out = {}
    for name, values in layers().items():
        h = hashlib.sha256()
        _feed(h, values)
        out[name] = h.hexdigest()
    return out


def test_every_layer_gives_its_committed_digest():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, f"values moved in layers: {', '.join(moved)}"


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))
