"""Analytic distance formulas for each state-family pairing.

These are the cross-validation oracles: every function here evaluates a
printed closed form directly from scalar parameters, sharing no code
with the matrix-based numerics in ``distances``.  Each returns a plain
dict; its keys: ``hs`` (Hilbert-Schmidt), ``bu`` (Bures-Uhlmann),
``dN`` (number-polarized), ``dN_sqrt`` (number-polarized on square
roots), ``DN`` / ``Da`` (quasidistances), and for pure pairs
``overlap`` = |<a|b>|.

Asymptotic simplifications are never mixed into those dicts; the
large-nbar thermal forms come from ``thermal_approximations`` alone.

``closed_form_lookup`` picks the oracle for a state pair and a CLI
metric name from one table with a row per family pair.  ``parse_metric``
reads those names, for the lookup and for ``distances.evaluate_metric``
alike.  ``DIVERGENCE_KINDS`` names the tomographic divergences here,
not in ``tomography``, so that the CLI's help reads them without numpy.
"""

from __future__ import annotations

import math

from .errors import DegenerateStateError, StateValidationError

SQRT2 = math.sqrt(2.0)


def _abs2(z: complex) -> float:
    # re^2 + im^2, so |z|^2 and (z conj(z)).real round identically and
    # equal-argument distances cancel to exactly zero
    z = complex(z)
    return z.real * z.real + z.imag * z.imag


def coherent_pair(alpha: complex, beta: complex) -> dict:
    """hs, dN, Da and the overlap between two coherent states."""
    alpha, beta = complex(alpha), complex(beta)
    gap2 = _abs2(alpha - beta)
    # 1 - e^{-g^2} by expm1, and dN^2 = |alpha|^2 + |beta|^2 - 2 Re(conj(beta) alpha) e^{-g^2}
    # as g^2 + 2 Re(conj(beta) alpha)(1 - e^{-g^2}): neither cancels at a small gap g
    one_minus_e = -math.expm1(-gap2)
    hs = SQRT2 * math.sqrt(one_minus_e)
    dn_sq = gap2 + 2.0 * (beta.conjugate() * alpha).real * one_minus_e
    da = math.sqrt(gap2 * (1.0 + math.exp(-gap2)) / 2.0)
    return {"hs": hs, "dN": math.sqrt(max(dn_sq, 0.0)), "Da": da, "overlap": math.exp(-gap2 / 2.0)}


def coherent_fock(alpha: complex, m: int) -> dict:
    """hs, dN and the overlap sqrt(p_m) between a coherent state and |m>."""
    if m < 0:
        raise StateValidationError("m must be >= 0")
    lam = abs(alpha) ** 2
    # Poisson weight in log form: lam**m and m! overflow separately at large m
    pm = math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0.0 else float(m == 0)
    # 1 - p_m cancels only at m = 0, where it is 1 - e^{-lam}: expm1 keeps its digits
    hs = SQRT2 * math.sqrt(max(-math.expm1(-lam) if m == 0 else 1.0 - pm, 0.0))
    dn = math.sqrt(max(m + lam - 2.0 * m * pm, 0.0))
    return {"hs": hs, "dN": dn, "overlap": math.sqrt(pm)}


def fock_pair(m: int, n: int) -> dict:
    """hs, dN, quasidistance DN and the overlap between two number states."""
    if m < 0 or n < 0:
        raise StateValidationError("occupation numbers must be >= 0")
    dn = 0.0 if m == n else math.sqrt(m + n)
    dn_star = abs(math.sqrt(n) - math.sqrt(m)) / SQRT2
    hs = SQRT2 * (m != n)
    return {"hs": hs, "dN": dn, "DN": dn_star, "overlap": float(m == n)}


def squeezed_pair(zeta1: complex, zeta2: complex) -> dict:
    """hs, dN and the overlap sqrt(root/denom) between two squeezed vacua.

    When the two squeezing phases coincide, the simplified forms in the
    squeeze-parameter tau = artanh|zeta| are evaluated as well and
    exposed under ``hs_samephase`` / ``dN_samephase``.
    """
    if abs(zeta1) >= 1.0 or abs(zeta2) >= 1.0:
        raise StateValidationError("squeezing parameters must satisfy |zeta| < 1")
    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    zz = zeta1 * zeta2.conjugate()
    denom = abs(1.0 - zz)
    m1, m2 = _abs2(zeta1), _abs2(zeta2)
    root = math.sqrt((1.0 - m1) * (1.0 - m2))
    hs = SQRT2 * abs(zeta1 - zeta2) / math.sqrt(denom * (denom + root))
    # m1/(1-m1) + m2/(1-m2) - 2 (Re zz - |zz|^2) root/denom^3 without cancellation, by denom^2 = root^2 + g^2,
    # g = |zeta1 - zeta2|: it is g^2/root^2 times 1 + 2 (Re zz - |zz|^2)(denom^3 - root^3)/(g^2 denom^3)
    spread = (denom * denom + denom * root + root * root) / ((denom + root) * denom**3)
    dn_sq = _abs2(zeta1 - zeta2) / (root * root) * (1.0 + 2.0 * (zz.real - _abs2(zz)) * spread)
    values = {"hs": hs, "dN": math.sqrt(max(dn_sq, 0.0)), "overlap": math.sqrt(root / denom)}
    phase_gap = abs((zeta1 * zeta2.conjugate()).imag) if abs(zeta1) * abs(zeta2) > 0 else 0.0
    if phase_gap < 1e-12:
        t1, t2 = math.atanh(abs(zeta1)), math.atanh(abs(zeta2))
        # the tau-parametrized same-phase specializations
        hs_sp = 2.0 * abs(math.sinh(0.5 * (t1 - t2))) / math.sqrt(math.cosh(t1 - t2))
        dn_sp_sq = (
            math.sinh(t1) ** 2
            + math.sinh(t2) ** 2
            - 2.0 * math.sinh(t1) * math.sinh(t2) / math.cosh(t1 - t2) ** 2
        )
        values["hs_samephase"] = hs_sp
        values["dN_samephase"] = math.sqrt(max(dn_sp_sq, 0.0))
    return values


def cat_distances(alpha: complex, phi1: float, phi2: float) -> dict:
    """Distances around the cat family at a fixed displacement alpha.

    Keys: d_to_coherent / d_to_vacuum / dN_to_vacuum use phi1;
    d_between / dN_between compare the phases phi1 and phi2; the
    overlap_* keys are |<a|b>| of the same three pairs.

    The vacuum-distance formula is the corrected one
    2 (1 - x)(1 - x cos(phi)) / (1 + x^2 cos(phi)), x = exp(-|alpha|^2):
    it reproduces the direct overlap computation for every phi and in
    particular makes the odd cat orthogonal to the vacuum.
    """
    a2 = abs(alpha) ** 2
    x = math.exp(-a2)
    q = x * x
    den1 = 1.0 + math.cos(phi1) * q
    den2 = 1.0 + math.cos(phi2) * q
    if den1 <= 1e-14 or den2 <= 1e-14:
        raise DegenerateStateError("cat normalization denominator ~ 0")
    # no cancellation at small |alpha| or phase gap: 1 - e^{-t} = -expm1(-t),
    # 1 - cos t = 2 sin^2(t/2) and 1 - y cos t = (1 - y) + 2 y sin^2(t/2)
    one_minus_x, one_minus_q, one_minus_q2 = (-math.expm1(-t * a2) for t in (1.0, 2.0, 4.0))
    half1 = 2.0 * math.sin(0.5 * phi1) ** 2
    gap = 2.0 * math.sin(0.5 * (phi1 - phi2)) ** 2
    d_coh_sq = one_minus_q2 / den1
    d_vac_sq = 2.0 * one_minus_x * (one_minus_x + x * half1) / den1
    d_between_sq = one_minus_q2 * gap / (den1 * den2)
    dn_vac_sq = a2 * (one_minus_q + q * half1) / den1
    dn_between_sq = a2 * (1.0 + q * q) * gap / (den1 * den2)
    return {
        "d_to_coherent": math.sqrt(max(d_coh_sq, 0.0)),
        "d_to_vacuum": math.sqrt(max(d_vac_sq, 0.0)),
        "d_between": math.sqrt(max(d_between_sq, 0.0)),
        "dN_to_vacuum": math.sqrt(max(dn_vac_sq, 0.0)),
        "dN_between": math.sqrt(max(dn_between_sq, 0.0)),
        "overlap_to_coherent": math.hypot(1.0 + q * math.cos(phi1), q * math.sin(phi1))
        / math.sqrt(2.0 * den1),
        "overlap_to_vacuum": math.sqrt(2.0 * x / den1) * abs(math.cos(0.5 * phi1)),
        "overlap_between": abs(math.cos(0.5 * (phi2 - phi1)) + q * math.cos(0.5 * (phi1 + phi2)))
        / math.sqrt(den1 * den2),
    }


def phase_pair(eps1: complex, eps2: complex) -> dict:
    """hs, dN and the overlap between two coherent phase states."""
    if abs(eps1) >= 1.0 or abs(eps2) >= 1.0:
        raise StateValidationError("phase-state parameters must satisfy |eps| < 1")
    eps1, eps2 = complex(eps1), complex(eps2)
    ee = eps1 * eps2.conjugate()
    denom = abs(1.0 - ee)
    root = math.sqrt((1.0 - _abs2(eps1)) * (1.0 - _abs2(eps2)))
    hs = SQRT2 * abs(eps1 - eps2) / denom
    # m1/(1-m1) + m2/(1-m2) - 2 root^2 (Re ee - |ee|^2)/denom^4 split as in squeezed_pair, by
    # denom^4 - root^4 = g^2 (denom^2 + root^2)
    dn_sq = _abs2(eps1 - eps2) / (root * root) * (1.0 + 2.0 * (ee.real - _abs2(ee)) * (denom**2 + root**2) / denom**4)
    return {"hs": hs, "dN": math.sqrt(max(dn_sq, 0.0)), "overlap": root / denom}


def thermal_pair(nbar1: float, nbar2: float) -> dict:
    """All thermal-pair distances; ``thermal_approximations`` has their large-nbar forms.

    ``dN_min_pseudo`` is the minimal number-polarized distance between
    two phase states with the same mean photon numbers, attained when
    the two phase parameters are aligned.
    """
    if nbar1 < 0 or nbar2 < 0:
        raise StateValidationError("mean photon numbers must be >= 0")
    n1, n2 = float(nbar1), float(nbar2)
    s = 1.0 + n1 + n2
    hs = SQRT2 * abs(n1 - n2) / math.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2) * s)
    cross = (math.sqrt((1.0 + n1) * (1.0 + n2)) + math.sqrt(n1 * n2)) / s
    # no cancellation at a small gap: each root difference (sqrt(n1) - sqrt(n2), sqrt(1+n1) - sqrt(1+n2))
    # is (n1 - n2) over the sum of the roots, 2s(1 - cross) is the sum of their squares, and
    # n1 + n2 - 2 sqrt(n1 n2) cross^k is (sqrt(n1) - sqrt(n2))^2 + 2 sqrt(n1 n2)(1 - cross^k)
    gap_root = (n1 - n2) / (math.sqrt(n1) + math.sqrt(n2)) if n1 + n2 > 0.0 else 0.0
    gap_root1 = (n1 - n2) / (math.sqrt(1.0 + n1) + math.sqrt(1.0 + n2))
    one_minus_cross = (gap_root1 * gap_root1 + gap_root * gap_root) / (2.0 * s)
    bu = SQRT2 * math.sqrt(one_minus_cross)
    dn = (
        abs(n1 - n2)
        * math.sqrt(s * s + 2.0 * n1 * n2 * (1.0 + 2.0 * n1) * (1.0 + 2.0 * n2))
        / ((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2) * s)
    )
    g = math.sqrt(n1 * n2)
    dn_sqrt_sq = gap_root * gap_root + 2.0 * g * one_minus_cross * (1.0 + cross)
    dn_min_sq = gap_root * gap_root + 2.0 * g * one_minus_cross * (1.0 + cross + cross * cross)
    return {
        "hs": hs,
        "bu": bu,
        "dN": dn,
        "dN_sqrt": math.sqrt(dn_sqrt_sq),
        "dN_min_pseudo": math.sqrt(dn_min_sq),
    }


def thermal_approximations(nbar1: float, nbar2: float) -> dict:
    """Large-nbar forms of ``thermal_pair``'s bu, dN_sqrt and dN_min_pseudo.

    Valid for nbar >> 1; the close-gap forms additionally need
    |nbar1 - nbar2| << nbar.  All are for the *unsquared* distances.
    Empty unless both mean photon numbers are positive.
    """
    n1, n2 = float(nbar1), float(nbar2)
    if not (n1 > 0 and n2 > 0):
        return {}
    g = math.sqrt(n1 * n2)
    gap_root = abs(math.sqrt(n1) - math.sqrt(n2))
    return {
        "bu_large": SQRT2 * gap_root / math.sqrt(n1 + n2),
        "dN_sqrt_large": math.sqrt(max(n1 + n2 - 8.0 * g**3 / (n1 + n2) ** 2, 0.0)),
        "dN_min_large": math.sqrt(max(n1 + n2 - 16.0 * g**4 / (n1 + n2) ** 3, 0.0)),
        "dN_sqrt_close": math.sqrt(3.0) * gap_root,
        "dN_min_close": 2.0 * gap_root,
    }


# ---------------------------------------------------------------------------
# the oracle table: one row per family pair, values keyed by CLI metric name
# ---------------------------------------------------------------------------

def _pure(hs: float, overlap: float, **energy) -> dict:
    """The seven overlap metrics of a pure pair, plus its energy-sensitive ones.

    With o = |<a|b>|: fs = hs-p = hs (rho^p = rho for a projector),
    jmg = hs/sqrt(2) = sqrt(1 - o^2), minimal = bu = sqrt(2 - 2o) =
    hs/sqrt(1 + o), wootters = acos(o) = atan2(sqrt(1 - o^2), o); and
    dn-sqrt = dn, since sqrt(rho) = rho.
    """
    sine = hs / SQRT2
    root = hs / math.sqrt(1.0 + overlap)
    values = {"hs": hs, "fs": hs, "hs-p": hs, "jmg": sine, "minimal": root, "bu": root,
              "wootters": math.atan2(sine, overlap)}
    values.update(energy)
    if "dn" in energy:
        values["dn-sqrt"] = energy["dn"]
    return values


def _pure_row(r: dict, **keys) -> dict:
    """``_pure`` on a family result holding hs and overlap; ``keys`` maps metric -> result key."""
    return _pure(r["hs"], r["overlap"], **{metric: r[key] for metric, key in keys.items()})


def _cat_cat(a: dict, b: dict, p: float) -> dict:
    if abs(a["alpha"] - b["alpha"]) >= 1e-12:
        return {}
    r = cat_distances(a["alpha"], a["phi"], b["phi"])
    return _pure(r["d_between"], r["overlap_between"], dn=r["dN_between"])


def _cat_coherent(a: dict, b: dict, p: float) -> dict:
    if abs(a["alpha"] - b["alpha"]) >= 1e-12:
        return {}
    r = cat_distances(a["alpha"], a["phi"], 0.0)
    return _pure(r["d_to_coherent"], r["overlap_to_coherent"])


def _cat_fock(a: dict, b: dict, p: float) -> dict:
    if b["n"] != 0:
        return {}
    r = cat_distances(a["alpha"], a["phi"], 0.0)
    return _pure(r["d_to_vacuum"], r["overlap_to_vacuum"], dn=r["dN_to_vacuum"])


def _thermal_thermal(a: dict, b: dict, p: float) -> dict:
    r = thermal_pair(a["nbar"], b["nbar"])
    values = {"hs": r["hs"], "bu": r["bu"], "dn": r["dN"], "dn-sqrt": r["dN_sqrt"]}
    if abs(p - 0.5) < 1e-12:
        values["hs-p"] = r["bu"]  # commuting pair: the p = 1/2 modification equals Bures-Uhlmann
    return values


# (family, family) -> row(params_a, params_b, p) -> {metric: value}
_TABLE = {
    ("coherent", "coherent"):
        lambda a, b, p: _pure_row(coherent_pair(a["alpha"], b["alpha"]), dn="dN", Da="Da"),
    ("coherent", "fock"): lambda a, b, p: _pure_row(coherent_fock(a["alpha"], b["n"]), dn="dN"),
    ("fock", "fock"): lambda a, b, p: _pure_row(fock_pair(a["n"], b["n"]), dn="dN", DZ="DN"),
    ("squeezed_vacuum", "squeezed_vacuum"):
        lambda a, b, p: _pure_row(squeezed_pair(a["zeta"], b["zeta"]), dn="dN"),
    ("coherent_phase", "coherent_phase"):
        lambda a, b, p: _pure_row(phase_pair(a["epsilon"], b["epsilon"]), dn="dN"),
    ("thermal", "thermal"): _thermal_thermal,
    ("cat", "cat"): _cat_cat,
    ("cat", "coherent"): _cat_coherent,
    ("cat", "fock"): _cat_fock,
}

# the parameters of each family's vacuum member; a family not listed has none
_VACUUM = {
    "fock": {"n": 0},
    "coherent": {"alpha": 0j},
    "squeezed_vacuum": {"zeta": 0j},
    "coherent_phase": {"epsilon": 0j},
    "thermal": {"nbar": 0.0},
}


METRIC_NAMES = ("fs", "minimal", "wootters", "hs", "jmg", "bu", "hs-p", "dn", "dn-sqrt", "DZ", "Da")
DIVERGENCE_KINDS = ("hellinger", "kolmogorov", "bhattacharyya", "kullback")


def parse_metric(name: str) -> tuple[str, float]:
    """Split a CLI metric name into its base name and the power of ``hs-p``.

    Only ``hs-p`` takes a ``:<p>`` suffix, its power p in (0, 1] (1/2
    when absent; the other metrics report 1/2 too).  Any other name
    raises StateValidationError.
    """
    base, sep, suffix = name.partition(":")
    if base not in METRIC_NAMES:
        raise StateValidationError(f"unknown metric {name!r}")
    if sep and base != "hs-p":
        raise StateValidationError(f"metric {base!r} takes no ':<suffix>', got {name!r}")
    try:
        p = float(suffix) if sep else 0.5
    except ValueError:
        raise StateValidationError(f"bad power in metric {name!r}") from None
    if not 0.0 < p <= 1.0:  # also catches nan
        raise StateValidationError(f"power p must lie in (0, 1], got {p!r}")
    return base, p


def closed_form_lookup(spec_a, spec_b, metric: str) -> float | None:
    """Analytic value of a CLI metric between two ``StateSpec`` states, or None.

    The pair is looked up as given first.  A vacuum spec of any family
    is then read as its partner's vacuum member, or as fock:0 when the
    partner's family has none, so that two vacua of different families
    still meet a row.  The name is read by ``parse_metric``.
    """
    base, p = parse_metric(metric)
    a, b = (spec_a.family, spec_a.params), (spec_b.family, spec_b.params)
    pairs = [(a, b)]
    for state, other in ((a, b), (b, a)):
        if _VACUUM.get(other[0]) == other[1]:
            family = state[0] if state[0] in _VACUUM else "fock"
            pairs.append((state, (family, _VACUUM[family])))
    for (fx, px), (fy, py) in pairs:
        if (fx, fy) in _TABLE:
            values = _TABLE[fx, fy](px, py, p)
        elif (fy, fx) in _TABLE:
            values = _TABLE[fy, fx](py, px, p)
        else:
            continue
        if base in values:
            return values[base]
    return None
