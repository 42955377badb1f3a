"""Stored bits: profile, Ricci form, form comparison and domain samples.

The suite's other checks compare reruns with each other or values with
tolerances; these compare with ``float.hex`` values stored here, so a change
that moves any result by one ulp fails.  The values were captured on x86-64
Linux with CPython 3.11, numpy 2.4.6 and its bundled OpenBLAS LAPACK; a different libm
or LAPACK may round the last bit differently, and then these must be
recaptured, not loosened.  To recapture, run this file as a script
(``PYTHONPATH=src python tests/test_pinned_bits.py``): it prints every
stored table and digest as the current code computes it.

The profile digests extend the pins from a few chosen points to about
20,000 drawn ones: each is the SHA-256 of the ``float.hex`` strings of
(u', u'') at every input, so one changed rounding anywhere in the sample
fails.
The sample digests pin two domain samples the same way, over the real and
imaginary parts of every coordinate: a changed sample bit moves every report
built on the sample at rounding level, and fails here first.
"""

import hashlib

import numpy as np
import pytest

from conifold_lab.chart import DomainSpec, ResolvedPoint
from conifold_lab.curvature import StencilSpec, ricci_form
from conifold_lab.forms import CONIFOLD_FLAT, calabi_family, compare_forms, eval_form
from conifold_lab.metricgeom import sample_domain
from conifold_lab.profile import RHO_CLAMP, ProfileParams, eval_profile, eval_profiles

# (t, rho) -> (u', u'') from the scalar solve
PROFILE_BITS = {
    (1e-06, -700.0): ("0x1.0e7500d5ad95cp-1000", "0x1.0e7500d5ad95cp-1000"),
    (1e-06, -600.0): ("0x1.4601d3ec44feep-856", "0x1.4601d3ec44fefp-856"),
    (1e-06, -40.0): ("0x1.32204db6d18e4p-48", "0x1.32204daf8ba41p-48"),
    (1e-06, -3.0): ("0x1.3d468dadbc7f9p-3", "0x1.a7091661fe28ep-4"),
    (1e-06, 0.0): ("0x1.250bf5b78c9c7p+0", "0x1.86baa8240a97cp-1"),
    (1e-06, 300.0): ("0x1.a9ca0b8de3f9fp+288", "0x1.1bdc07b3ed515p+288"),
    (0.01, -700.0): ("0x1.5a2f5d3a77c9fp-1007", "0x1.5a2f5d3a77c9ep-1007"),
    (0.01, -600.0): ("0x1.a14a05057708dp-863", "0x1.a14a05057708dp-863"),
    (0.01, -40.0): ("0x1.87d76dc01e0a3p-55", "0x1.87d76dc01e09ap-55"),
    (0.01, -3.0): ("0x1.335c29c108f9dp-3", "0x1.a69d1fc47878ap-4"),
    (0.01, 0.0): ("0x1.23c5bd5d67e68p+0", "0x1.86b8c271bc6b9p-1"),
    (0.01, 300.0): ("0x1.a9ca0b8de3f9fp+288", "0x1.1bdc07b3ed515p+288"),
    (1.0, -700.0): ("0x1.14f2b0fb9307fp-1010", "0x1.14f2b0fb9307fp-1010"),
    (1.0, -600.0): ("0x1.4dd4d0d12c071p-866", "0x1.4dd4d0d12c071p-866"),
    (1.0, -40.0): ("0x1.39792499b1a24p-58", "0x1.39792499b1a24p-58"),
    (1.0, -3.0): ("0x1.915a90a9202d8p-5", "0x1.8b1af7b459479p-5"),
    (1.0, 0.0): ("0x1.9ce6381713be9p-1", "0x1.5f74ce1dafa79p-1"),
    (1.0, 300.0): ("0x1.a9ca0b8de3f9fp+288", "0x1.1bdc07b3ed515p+288"),
}

RICCI_STENCIL = StencilSpec(1e-3, 4)
# (t, point, the nine entries of the Ricci form in row order, as (real, imag))
RICCI_BITS = [
    (1.0, ResolvedPoint(z=(0.3+0.2j), xi1=(0.5-0.1j), xi2=(0.2+0.4j)), [
        ("0x1.6999fcaaaaaaap-31", "-0x0.0p+0"),
        ("0x1.d82cbc71c71c8p-37", "-0x1.371c18e38e38fp-35"),
        ("0x1.5ea25eaaaaaacp-34", "-0x1.2d33bf5555556p-33"),
        ("0x1.d82cbc71c71c8p-37", "0x1.371c18e38e38fp-35"),
        ("-0x1.4e6bfaaaaaaaap-34", "-0x0.0p+0"),
        ("-0x1.85c9b2e38e38ep-33", "0x1.dd0c90e38e38ep-33"),
        ("0x1.5ea25eaaaaaacp-34", "0x1.2d33bf5555556p-33"),
        ("-0x1.85c9b2e38e38ep-33", "-0x1.dd0c90e38e38ep-33"),
        ("-0x1.040902aaaaaaap-32", "-0x0.0p+0"),
    ]),
    (0.01, ResolvedPoint(z=(-0.7+0.1j), xi1=(0.05+0.02j), xi2=(-0.03+0.04j)), [
        ("0x1.017df80000000p-29", "-0x0.0p+0"),
        ("0x1.c81178e38e38dp-34", "-0x1.b055155555555p-34"),
        ("0x1.2dc8f1c71c71cp-33", "-0x1.0e6b6e38e38e3p-33"),
        ("0x1.c81178e38e38dp-34", "0x1.b055155555555p-34"),
        ("0x1.691feaaaaaaaep-32", "-0x0.0p+0"),
        ("-0x1.f42631c71c71cp-33", "0x1.6e36000000001p-33"),
        ("0x1.2dc8f1c71c71cp-33", "0x1.0e6b6e38e38e3p-33"),
        ("-0x1.f42631c71c71cp-33", "-0x1.6e36000000001p-33"),
        ("0x1.3b592aaaaaaabp-32", "-0x0.0p+0"),
    ]),
]

COMPARE_POINTS = [
    ResolvedPoint(0.1 - 0.4j, 0.6 + 0.3j, -0.2 + 0.1j),
    ResolvedPoint(1.5 + 0.5j, 1e-3 + 2e-3j, 3e-3 - 1e-3j),
    ResolvedPoint(-0.2j, 1e-4j, 2e-5 + 0j),
]
# t -> (lmin, lmax) of the family against CONIFOLD_FLAT at each of COMPARE_POINTS
COMPARE_BITS = {
    1.0: [
        ("0x1.892cdc6838c28p-1", "0x1.497df5f80049ep+1"),
        ("0x1.fffb69abffe92p-1", "0x1.29a279e3081efp+14"),
        ("0x1.ffffffbcfba90p-1", "0x1.60b0b19350489p+26"),
    ],
    0.1: [
        ("0x1.d183fbcd581dep-1", "0x1.75947dff0001ap+0"),
        ("0x1.94531056149acp+1", "0x1.dcfb092c2273ep+10"),
        ("0x1.94c57da089000p+1", "0x1.1a26fa95bca33p+23"),
    ],
    0.01: [
        ("0x1.d32b2da1392dep-1", "0x1.609778ed87f65p+0"),
        ("0x1.357befc1e4049p+3", "0x1.909dec492087ap+7"),
        ("0x1.3fff68c88a400p+3", "0x1.c372c6d0befecp+19"),
    ],
}


#: The t of each ``eval_profiles`` call in the lanes digest, each on every
#: rho of ``_digest_inputs``.
DIGEST_T = (0.0, 1e-06, 0.001, 0.1, 1.0)
# SHA-256 of the (u', u'') hex strings of eval_profile at every (t, rho) of
# _digest_inputs, and of eval_profiles at every t of DIGEST_T
PROFILE_DIGEST = "d5921ada9974b44b89b30e355cc27f32ab9f19333cb6653001307516ffabfeff"
PROFILES_DIGEST = "81a08d2208671c2a03c0f161e1da0081f2aa48fc657aafc191e365522aded6f8"

# (r, n, seed) -> SHA-256 of the hex strings of (z, xi1, xi2), real and
# imaginary parts, at every point of sample_domain(DomainSpec(r), n, seed)
SAMPLE_DIGESTS = {
    (0.05, 500, 42): "8cad550d86f84069c7730caed100496e9720af53b5bd1d314a3ecf98da8b66b9",
    (1.0, 2000, 42): "61b01a542fb288f1bcd7a2245f4b4690cf92cdc7b14c27ab24055a8b6d98f20e",
}


def _bits(x: float) -> str:
    return float(x).hex()


def _digest_inputs() -> tuple[list[tuple[float, float]], np.ndarray]:
    """(t, rho) pairs for the scalar solve and the rho array for the lanes.

    20,000 pairs are drawn as bench ``pointwise`` draws them: t log-uniform
    in [1e-6, 1], 80% of rho in [-40, 0] and 20% in [-600, -40].  The cone
    t = 0 and the two clamp edges are added to both.
    """
    rng = np.random.default_rng(2025)
    n = 20_000
    t = 10.0 ** rng.uniform(-6.0, 0.0, n)
    deep = rng.uniform(0.0, 1.0, n) < 0.2
    rho = np.where(deep, rng.uniform(-600.0, -40.0, n), rng.uniform(-40.0, 0.0, n))
    rho = np.concatenate([rho, RHO_CLAMP])
    pairs = list(zip(t.tolist(), rho.tolist()))
    pairs += [(0.0, r) for r in rho[::20].tolist()]
    pairs += [(tt, r) for tt in DIGEST_T for r in RHO_CLAMP]
    return pairs, rho


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _profile_digest(pairs) -> str:
    return _digest(f"{_bits(e.uprime)} {_bits(e.usecond)}"
                   for e in (eval_profile(ProfileParams(t), r) for t, r in pairs))


def _profiles_digest(rho: np.ndarray) -> str:
    lines = []
    for t in DIGEST_T:
        e = eval_profiles(ProfileParams(t), rho)
        lines += [f"{_bits(up)} {_bits(us)}" for up, us in zip(e.uprime.tolist(), e.usecond.tolist())]
    return _digest(lines)


def _sample_digest(r: float, n: int, seed: int) -> str:
    p = sample_domain(DomainSpec(r), n, seed)
    return _digest(" ".join(_bits(x) for c in (p.z[i], p.xi1[i], p.xi2[i]) for x in (c.real, c.imag))
                   for i in range(n))


@pytest.mark.parametrize("t, r", sorted(PROFILE_BITS))
def test_scalar_profile_bits(t, r):
    prof = eval_profile(ProfileParams(t), r)
    assert (_bits(prof.uprime), _bits(prof.usecond)) == PROFILE_BITS[t, r]


def test_profile_digests():
    pairs, rho = _digest_inputs()
    assert _profile_digest(pairs) == PROFILE_DIGEST
    assert _profiles_digest(rho) == PROFILES_DIGEST


@pytest.mark.parametrize("r, n, seed", sorted(SAMPLE_DIGESTS))
def test_sample_digests(r, n, seed):
    assert _sample_digest(r, n, seed) == SAMPLE_DIGESTS[r, n, seed]


@pytest.mark.parametrize("t, p, entries", RICCI_BITS)
def test_ricci_form_bits(t, p, entries):
    m = ricci_form(calabi_family(t), p, RICCI_STENCIL).m
    got = [(_bits(v.real), _bits(v.imag)) for v in m.ravel()]
    assert got == entries


@pytest.mark.parametrize("t", sorted(COMPARE_BITS))
def test_compare_forms_bits(t):
    got = [
        tuple(_bits(v) for v in compare_forms(eval_form(calabi_family(t), p),
                                              eval_form(CONIFOLD_FLAT, p)))
        for p in COMPARE_POINTS
    ]
    assert got == COMPARE_BITS[t]


def _print_tables() -> None:
    """Print every stored table and digest as the current code computes it."""
    print("PROFILE_BITS = {")
    for t, r in sorted(PROFILE_BITS):
        prof = eval_profile(ProfileParams(t), r)
        print(f'    ({t!r}, {r!r}): ("{_bits(prof.uprime)}", "{_bits(prof.usecond)}"),')
    print("}\n\nRICCI_BITS = [")
    for t, p, _ in RICCI_BITS:
        print(f"    ({t!r}, {p!r}, [")
        for v in ricci_form(calabi_family(t), p, RICCI_STENCIL).m.ravel():
            print(f'        ("{_bits(v.real)}", "{_bits(v.imag)}"),')
        print("    ]),")
    print("]\n\nCOMPARE_BITS = {")
    for t in sorted(COMPARE_BITS, reverse=True):
        print(f"    {t!r}: [")
        for p in COMPARE_POINTS:
            lo, hi = compare_forms(eval_form(calabi_family(t), p), eval_form(CONIFOLD_FLAT, p))
            print(f'        ("{_bits(lo)}", "{_bits(hi)}"),')
        print("    ],")
    pairs, rho = _digest_inputs()
    print(f'}}\n\nPROFILE_DIGEST = "{_profile_digest(pairs)}"')
    print(f'PROFILES_DIGEST = "{_profiles_digest(rho)}"')
    print("\nSAMPLE_DIGESTS = {")
    for key in sorted(SAMPLE_DIGESTS):
        print(f'    {key!r}: "{_sample_digest(*key)}",')
    print("}")


if __name__ == "__main__":
    _print_tables()
