"""Expected answers for every benchmark operation, typed from the paper's
formulas.

Nothing here imports orbifold_index: a wrong library result must not be able
to vouch for itself.  Each check takes the library's answer in the plain
form the benchmark reads it in (Fractions or parsed CLI JSON) and returns
True only on exact agreement.
"""

from __future__ import annotations

from fractions import Fraction as F

SUITES = ("conjugation", "correction", "divisibility", "p-independence",
          "rank", "trig")


def correction(p: int) -> tuple[F, F]:
    """Group-averaged correction sum, p >= 2: e and h coefficients."""
    return F(-(7 * p - 15), 2 * p), F(24 - 5 * (p * p - 1), 6 * p)


def trig(p: int) -> tuple[F, F, F]:
    """sum cos, sum cos^2 and sum 1/(1 - cos) over theta_j = 2 pi j / p,
    j = 1..p-1; the cos^2 sum is 1 at p = 2, where 2 theta_1 is a full turn."""
    return F(-1), (F(1) if p == 2 else F(p - 2, 2)), F(p * p - 1, 6)


def index(chi: int, tau: int, sigma_chi: int, sigma_sq: int, duality: str) -> F:
    """(1/2)(15 chi +- 29 tau) - 4 chi(Sigma) -+ 4 [Sigma]^2; upper signs ASD."""
    s = 1 if duality == "asd" else -1
    return F(15 * chi + s * 29 * tau, 2) - 4 * sigma_chi - s * 4 * sigma_sq


def chi_orb(chi: int, beta: F, sigma_chi: int) -> F:
    return chi - (1 - beta) * sigma_chi


def tau_orb(tau: int, beta: F, sigma_sq: int) -> F:
    return tau - F(1, 3) * (1 - beta * beta) * sigma_sq


def massey(j: int) -> list[int]:
    """Whitney-Massey self-intersections of j crosscaps in S^4."""
    return list(range(-2 * j, 2 * j + 1, 4))


def feasible(j: int) -> list[int]:
    """Massey values an unobstructed cone metric on (S^4, j crosscaps) can
    have: the SD index 7 + 4j + 4s stays within the H0 bound iff s < -j."""
    return [s for s in massey(j) if s < -j]


def _cyclotomic_poly(p: int) -> list[int]:
    """Phi_p, low degree first: x^p - 1 divided by Phi_d for every proper
    divisor d of p."""
    num = [-1] + [0] * (p - 1) + [1]
    for d in range(1, p):
        if p % d == 0:
            div = _cyclotomic_poly(d)
            out = [0] * (len(num) - len(div) + 1)
            for k in range(len(out) - 1, -1, -1):
                out[k] = num[k + len(div) - 1]
                for i, c in enumerate(div):
                    num[k + i] -= out[k] * c
            num = out
    return num


def _reduce(p: int, terms: list[tuple[int, F]]) -> list[F]:
    """Power-basis coordinates in Q(zeta_p) of sum c_k zeta^k."""
    phi = _cyclotomic_poly(p)
    deg = len(phi) - 1
    vec = [F(0)] * max(p, deg)
    for k, c in terms:
        vec[k % p] += c
    for k in range(len(vec) - 1, deg - 1, -1):  # Phi_p is monic
        c = vec[k]
        if c:
            for i, a in enumerate(phi):
                vec[k - deg + i] -= c * a
    return vec[:deg]


def correction_at_e(p: int, j: int) -> list[F]:
    """e coefficient of one element's correction, -(1/2)(8 cos + 7) with
    cos = (zeta^j + zeta^-j)/2, in power-basis coordinates."""
    return _reduce(p, [(0, F(-7, 2)), (j, F(-2)), (-j, F(-2))])


# ---------------------------------------------------------------------------
# checks on CLI payloads (parsed JSON)
# ---------------------------------------------------------------------------

def _pair(d: dict) -> tuple[F, F]:
    return F(d["e"]), F(d["h"])


def check_verify(payload: dict, p_max: int) -> int:
    """Number of failed (suite, p) checks in a verify payload; a missing
    suite or pass count counts as failed checks."""
    per_suite = p_max - 1
    failed = 0
    for name in SUITES:
        entry = payload.get("suites", {}).get(name, {})
        passed = entry.get("pass", 0)
        failed += per_suite - min(passed, per_suite)
    if payload.get("p_max") != p_max or payload.get("ok") is not True:
        failed = max(failed, 1)
    return failed


def check_query(argv: list[str], payload: dict) -> bool:
    """Compare one CLI query's JSON answer with the paper's formulas."""
    opts = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}
    cmd = argv[1]
    if cmd == "index":
        p = int(opts["p"])
        want = index(int(opts["chi"]), int(opts["tau"]), int(opts["sigma-chi"]),
                     int(opts["sigma-sq"]), opts["duality"])
        return (payload["index"] == want and payload["agree"] is True
                and set(payload["routes"].values()) == {want}
                and _pair(payload["correction"]) == correction(p))
    if cmd == "correction":
        p = int(opts["p"])
        ok = (_pair(payload["brute"]) == correction(p)
              and _pair(payload["closed"]) == correction(p)
              and payload["agree"] is True)
        if "dump-element" in opts:
            j = int(opts["dump-element"])
            got = [F(c) for c in payload["correction_at"]["e"]["coeffs"]]
            ok = ok and got == correction_at_e(p, j) and len(payload["characters"]) == 7
        return ok
    if cmd == "example":
        which = argv[2]
        if which == "hitchin":
            r = payload["report"]
            return (r["index"] == index(2, 0, 1, -2, "sd") == 3
                    and (r["dim_h0"], r["dim_h1"], r["dim_h2"]) == (3, 0, 0))
        if which == "lebrun":
            n = int(opts["n"])
            return payload["report"]["index"] == index(n + 2, n, 2, n, "sd") == 7 - 3 * n
        return payload["moduli_dim"] == -index(int(opts["chi"]), int(opts["tau"]),
                                               int(opts["sigma-chi"]),
                                               int(opts["sigma-sq"]), "asd")
    if cmd == "surfaces":
        j = int(opts["j"])
        return (payload["massey"] == massey(j) and payload["feasible"] == feasible(j)
                and payload["euler_char"] == 2 - j)
    if cmd == "orbifold-char":
        beta = F(opts["beta"])
        return (F(payload["chi_orb"]) == chi_orb(int(opts["chi"]), beta, int(opts["sigma-chi"]))
                and F(payload["tau_orb"]) == tau_orb(int(opts["tau"]), beta, int(opts["sigma-sq"])))
    raise ValueError(f"no oracle for query {argv!r}")
