"""Model specification for the coupled mutation-lag / population-size process.

The state is (x, y): x in R^d is the phenotypic lag behind an optimum moving
at speed v along the first axis, y > 0 a transformed population size
(y = (2/sigma) sqrt(n) for raw size n). Between jumps x declines
deterministically at rate v in the first coordinate and y diffuses with unit
Brownian noise and drift

    drift_y(x, y) = -1/(2 y) + r(x) y / 2 - gamma y**3,
    gamma = gamma_n * sigma**2 / 8.

Mutations of effect w arrive from a Poisson proposal stream with intensity
measure f(y) nu(dw) and fix with probability g(x, w); an accepted mutation
translates x by w instantly. Extinction is absorption of y at 0.

Everything here is pure parameterization and pointwise evaluation. The
structural hypotheses H1-H11 are decided in closed form from the families
and the signs of a few parameters, and the samplers take their generator
from the caller, so nothing here opens a random stream. Path dynamics live
in cohort, estimators in qsd, and the grid cross-check in oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.special import expit, ndtr

from .errors import DomainError, NumericError, UnsupportedModelError

__all__ = [
    "GrowthSpec",
    "ArrivalSpec",
    "FixationSpec",
    "MutationSpec",
    "ModelParams",
    "ReferenceBox",
    "HypothesisCheck",
    "HypothesisReport",
    "n_to_y",
    "y_to_n",
    "drift_y",
    "fixation_integral",
    "rescale_jump_measure",
    "validate_hypotheses",
    "reference_set",
    "y_equilibrium",
    "default_params",
    "flat_params",
]


# ---------------------------------------------------------------------------
# component families


@dataclass(frozen=True)
class GrowthSpec:
    """Per-capita growth rate as a function of the lag x.

    r(x) = r0 - a * ||x||^2. a >= 0; a > 0 is what drives growth to -infinity
    for large lags (checked by the hypothesis validator, not the constructor,
    so degenerate test models stay constructible).
    """

    r0: float = 2.0
    a: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.r0):
            raise DomainError("r0 must be finite")
        if not (self.a >= 0.0):
            raise DomainError("a must be >= 0")

    def rate(self, x: np.ndarray) -> np.ndarray:
        """r(x) for x of shape (..., d); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        return self.r0 - self.a * np.square(x).sum(axis=-1)

    @property
    def r_sup(self) -> float:
        """Supremum of r over R^d (attained at x = 0 for a >= 0)."""
        return self.r0


@dataclass(frozen=True)
class ArrivalSpec:
    """Mutation proposal rate as a function of raw population size n.

    f_n(n) = mu * n, so in y-coordinates f(y) = mu * sigma^2 y^2 / 4
    (assembled by ModelParams.f).
    """

    mu: float = 1.0

    def __post_init__(self):
        if not (self.mu > 0.0) or not np.isfinite(self.mu):
            raise DomainError("mu must be positive and finite")

    def rate_n(self, n: np.ndarray) -> np.ndarray:
        return self.mu * np.asarray(n, dtype=float)


@dataclass(frozen=True)
class FixationSpec:
    """Fixation probability g(x, w) of a proposed mutation w at lag x.

    Families:

    - "deleterious_ok": g = g_max * logistic(s * [r(x+w) - r(x)]). Strictly
      positive everywhere (deleterious mutations can fix).
    - "advantageous_only": g = g_max * (1 - exp(-s * [r(x+w) - r(x)])) on
      ||x + w|| < ||x||, else 0. Jumps can only shrink the lag norm.
    - "rescaled_advantageous": the advantageous-only g divided by
      (||w|| wedge 1); the companion of the size-tilted mutation family
      produced by rescale_jump_measure. May exceed g_max for small |w| but
      stays bounded on compacts (see bound()).
    """

    family: str = "deleterious_ok"
    g_max: float = 1.0
    s: float = 2.0

    _FAMILIES = ("deleterious_ok", "advantageous_only", "rescaled_advantageous")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise UnsupportedModelError(f"unknown fixation family {self.family!r}")
        if not (self.g_max > 0.0) or not np.isfinite(self.g_max):
            raise DomainError("g_max must be positive and finite")
        if not (self.s >= 0.0) or not np.isfinite(self.s):
            raise DomainError("s must be >= 0 and finite")

    @property
    def advantageous(self) -> bool:
        return self.family in ("advantageous_only", "rescaled_advantageous")

    def probability(self, x: np.ndarray, w: np.ndarray, growth: GrowthSpec) -> np.ndarray:
        """g(x, w), broadcast over leading dimensions of x and w."""
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        dr = growth.rate(x + w) - growth.rate(x)
        if self.family == "deleterious_ok":
            return self.g_max * expit(self.s * dr)
        inward = np.sum(np.square(x + w), axis=-1) < np.sum(np.square(x), axis=-1)
        # dr clipped first: -s dr overflows expm1 on outward pairs, masked below
        base = self.g_max * -np.expm1(-self.s * np.maximum(dr, 0.0))
        g = np.where(inward, base, 0.0)
        if self.family == "advantageous_only":
            return g
        # rescaled: divide by (||w|| wedge 1); g vanishes at w = 0 so the
        # clipped denominator never creates mass from nothing
        wn = np.sqrt(np.sum(np.square(w), axis=-1))
        return g / np.maximum(np.minimum(wn, 1.0), 1e-300)

    def bound(self, x_norm: float | np.ndarray, growth: GrowthSpec) -> float | np.ndarray:
        """Upper bound for sup_w g(x, w) over ||x|| <= x_norm, elementwise
        for an array of norms (a scalar for a scalar)."""
        x_norm = np.asarray(x_norm, dtype=float)
        if self.family != "rescaled_advantageous":
            return np.full(x_norm.shape, self.g_max)[()]
        # for |w| >= 1 the factor is 1; for |w| < 1,
        # (1 - exp(-s dr))/|w| <= s*dr/|w| <= s*a*(2||x|| + |w|) <= s*a*(2||x|| + 1)
        return (self.g_max * np.maximum(1.0, self.s * growth.a * (2.0 * x_norm + 1.0)))[()]


@dataclass(frozen=True)
class MutationSpec:
    """Finite mutation measure nu on mutation effects w in R^d.

    - "gaussian": nu = m_nu * N(0, tau^2 I_d); total mass m_nu.
    - "gaussian_size_tilted": nu = m_nu * (||w|| wedge 1) * N(0, tau^2 I_d) dw,
      the output measure of rescale_jump_measure. m_nu is the coefficient of
      the un-tilted Gaussian; the total mass is m_nu * E[||W|| wedge 1].
    """

    family: str = "gaussian"
    m_nu: float = 1.0
    tau: float = 0.5

    _FAMILIES = ("gaussian", "gaussian_size_tilted")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise UnsupportedModelError(f"unknown mutation family {self.family!r}")
        # m_nu = 0 is the mutation-free degenerate model: no proposals ever
        # fire, so it stays simulable even though the uniqueness hypotheses
        # fail (diagnostics use it as the zero-flux control)
        if not (self.m_nu >= 0.0) or not np.isfinite(self.m_nu):
            raise DomainError("m_nu must be >= 0 and finite")
        if not (self.tau > 0.0) or not np.isfinite(self.tau):
            raise DomainError("tau must be positive and finite")

    def gauss_pdf(self, w: np.ndarray) -> np.ndarray:
        """Density of N(0, tau^2 I_d) at w of shape (..., d)."""
        w = np.asarray(w, dtype=float)
        d = w.shape[-1]
        q = np.sum(np.square(w), axis=-1) / (2.0 * self.tau**2)
        return (2.0 * math.pi * self.tau**2) ** (-d / 2.0) * np.exp(-q)

    def density(self, w: np.ndarray) -> np.ndarray:
        """Lebesgue density of nu at w (mass-weighted, not normalized)."""
        base = self.m_nu * self.gauss_pdf(w)
        if self.family == "gaussian":
            return base
        wn = np.sqrt(np.sum(np.square(np.asarray(w, dtype=float)), axis=-1))
        return base * np.minimum(wn, 1.0)

    def total_mass(self, dim: int) -> float:
        """nu(R^d)."""
        if self.family == "gaussian":
            return self.m_nu
        if dim == 1:
            t = self.tau
            pdf0 = 1.0 / (t * math.sqrt(2.0 * math.pi))
            pdf1 = pdf0 * math.exp(-1.0 / (2.0 * t * t))
            expectation = 2.0 * t * t * (pdf0 - pdf1) + 2.0 * ndtr(-1.0 / t)
            return self.m_nu * expectation
        nodes, weights = _gh_grid(_QUAD_ORDER, dim)
        wn = np.sqrt(np.sum(np.square(nodes * self.tau * math.sqrt(2.0)), axis=-1))
        return self.m_nu * float(np.sum(weights * np.minimum(wn, 1.0)))

    def sample(self, gen: np.random.Generator, size: int, dim: int) -> np.ndarray:
        """Draw `size` effects from the normalized law nu / nu(R^d)."""
        if self.family == "gaussian":
            return gen.normal(0.0, self.tau, size=(size, dim))
        out = np.empty((size, dim))
        filled = 0
        while filled < size:
            batch = max(size - filled, 64)
            cand = gen.normal(0.0, self.tau, size=(batch * 2, dim))
            accept_p = np.minimum(np.sqrt(np.sum(np.square(cand), axis=-1)), 1.0)
            keep = cand[gen.random(batch * 2) < accept_p]
            take = min(len(keep), size - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out


# ---------------------------------------------------------------------------
# assembled parameter set and state


@dataclass(frozen=True)
class ModelParams:
    """Complete, immutable model parameterization."""

    dim: int = 1
    v: float = 0.2
    sigma: float = 1.0
    gamma_n: float = 0.1
    growth: GrowthSpec = field(default_factory=GrowthSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    fixation: FixationSpec = field(default_factory=FixationSpec)
    mutation: MutationSpec = field(default_factory=MutationSpec)

    def __post_init__(self):
        if not (1 <= self.dim <= 3):
            raise DomainError("dim must be 1, 2 or 3")
        for name in ("v", "sigma", "gamma_n"):
            val = getattr(self, name)
            if not (val > 0.0) or not np.isfinite(val):
                raise DomainError(f"{name} must be positive and finite")

    @property
    def gamma(self) -> float:
        """Cubic damping coefficient; always gamma_n * sigma^2 / 8."""
        return self.gamma_n * self.sigma**2 / 8.0

    def r(self, x: np.ndarray) -> np.ndarray:
        return self.growth.rate(x)

    def f(self, y) -> np.ndarray:
        """Proposal-rate factor in y-coordinates: f(y) = f_n(sigma^2 y^2 / 4)."""
        y = np.asarray(y, dtype=float)
        return self.arrival.rate_n(y_to_n(y, self.sigma))

    def g(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.fixation.probability(x, w, self.growth)

    def mutation_mass(self) -> float:
        return self.mutation.total_mass(self.dim)

    def g_bound(self, x_norm: float | np.ndarray) -> float | np.ndarray:
        return self.fixation.bound(x_norm, self.growth)


# ---------------------------------------------------------------------------
# coordinate maps and drift


def n_to_y(n, sigma: float):
    """Transform raw population size n >= 0 to y = (2/sigma) sqrt(n)."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0.0):
        raise DomainError("population size must be >= 0")
    if not (sigma > 0.0):
        raise DomainError("sigma must be positive")
    return (2.0 / sigma) * np.sqrt(n)


def y_to_n(y, sigma: float):
    """Inverse of n_to_y: n = sigma^2 y^2 / 4."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise DomainError("y must be >= 0")
    return sigma**2 * np.square(y) / 4.0


def drift_y(x, y, params: ModelParams):
    """Drift of the y coordinate: -1/(2y) + r(x) y/2 - gamma y^3.

    x has shape (..., d) and y shape (...) (broadcastable). y must be
    strictly positive.
    """
    y = np.asarray(y, dtype=float)
    if (y <= 0.0).any():
        raise DomainError("drift_y requires y > 0")
    r = params.r(x)
    return -0.5 / y + 0.5 * r * y - params.gamma * y**3


def y_equilibrium(r_value: float, gamma: float) -> float | None:
    """Largest stationary point of the frozen-r drift, None if none exists.

    Solves r y/2 - gamma y^3 - 1/(2y) = 0, i.e. 2 gamma u^2 - r u + 1 = 0
    for u = y^2.
    """
    if gamma <= 0.0:
        return math.sqrt(1.0 / r_value) if r_value > 0.0 else None
    disc = r_value**2 - 8.0 * gamma
    if r_value <= 0.0 or disc < 0.0:
        return None
    u_plus = (r_value + math.sqrt(disc)) / (4.0 * gamma)
    return math.sqrt(u_plus)


# ---------------------------------------------------------------------------
# quadrature over the mutation measure


# Gauss-Hermite / Gauss-Legendre order of the mutation-measure quadrature;
# fixation_integral checks it against half this order
_QUAD_ORDER = 64


@lru_cache(maxsize=32)
def _gh_grid(order: int, dim: int):
    """Tensor Gauss-Hermite nodes/weights for E over N(0, I_d/2)-style kernels.

    Returns (nodes (n, dim), weights (n,)) with weights normalized so that
    sum(weights * h(sqrt(2) tau nodes)) = E[h(W)] for W ~ N(0, tau^2 I_d).
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    w = w / math.sqrt(math.pi)
    grids = np.meshgrid(*([t] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w] * dim), indexing="ij")]), axis=0
    )
    return nodes, weights


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def _integral_once(x: np.ndarray, params: ModelParams, order: int, weight: str) -> float:
    """One quadrature pass of integral of weight(w) g(x, w) nu(dw)."""
    mut = params.mutation
    tau = mut.tau
    d = params.dim

    tilted = mut.family == "gaussian_size_tilted"
    if d == 1 and (params.fixation.advantageous or tilted):
        # Gauss-Legendre on the smooth pieces of the integrand. For the
        # advantageous families g vanishes outside the open interval between
        # 0 and -2x and at both endpoints, so the indicator discontinuity
        # never enters; the size tilt min(|w|, 1) has kinks at w = -1, 0, 1.
        x0 = float(np.asarray(x).reshape(-1)[0])
        lo, hi = (sorted((0.0, -2.0 * x0)) if params.fixation.advantageous
                  else (-math.inf, math.inf))
        lo, hi = max(lo, -12.0 * tau), min(hi, 12.0 * tau)
        if hi <= lo:
            return 0.0
        cuts = [lo, *(k for k in (-1.0, 0.0, 1.0) if tilted and lo < k < hi), hi]
        t, wt = _gl_nodes(order)
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            wv = 0.5 * (b - a) * t + 0.5 * (b + a)
            wcol = wv[:, None]
            vals = params.g(np.asarray(x, dtype=float), wcol) * mut.density(wcol)
            if weight == "w1":
                vals = vals * wv
            total += 0.5 * (b - a) * float(np.sum(wt * vals))
        return total

    nodes, wts = _gh_grid(order, d)
    wv = math.sqrt(2.0) * tau * nodes
    vals = params.g(np.asarray(x, dtype=float), wv)
    if mut.family == "gaussian_size_tilted":
        vals = vals * np.minimum(np.sqrt(np.sum(np.square(wv), axis=-1)), 1.0)
    if weight == "w1":
        vals = vals * wv[..., 0]
    return mut.m_nu * float(np.sum(wts * vals))


def fixation_integral(x, params: ModelParams, weight: str = "one") -> float:
    """integral of weight(w) * g(x, w) nu(dw) with convergence check.

    weight: "one" for the acceptance rate factor, "w1" for the first-component
    displacement moment (flux integrand). Raises NumericError when halving the
    order moves the value by more than the family's tolerance.
    """
    if weight not in ("one", "w1"):
        raise DomainError(f"unknown weight {weight!r}")
    if params.mutation.m_nu == 0.0:
        return 0.0
    full = _integral_once(x, params, _QUAD_ORDER, weight)
    half = _integral_once(x, params, _QUAD_ORDER // 2, weight)
    scale = params.fixation.g_max * params.mutation_mass() * (1.0 + params.mutation.tau)
    tol = 1e-6 if (params.dim == 1 or not params.fixation.advantageous) else 1e-2
    err = abs(full - half) / max(abs(full), abs(half), 1e-9 * scale)
    if err > max(tol, 1e-3) and abs(full - half) > 1e-12 * scale:
        raise NumericError(
            "mutation-measure quadrature did not converge",
            diagnostics={"order": _QUAD_ORDER, "value": full, "half_order_value": half, "rel_change": err},
        )
    return full


# ---------------------------------------------------------------------------
# small-jump rescaling


def rescale_jump_measure(params: ModelParams) -> ModelParams:
    """Equivalent model with size-tilted mutation measure and rescaled fixation.

    Sends (g, nu) to (g/(|w| wedge 1), (|w| wedge 1) nu). The product g*nu,
    hence every accepted-jump law and rate, is unchanged pointwise; the new
    measure stays finite because the tilt integrates the |w| wedge 1 moment.
    Only defined for the advantageous-only family in d = 1.
    """
    if params.fixation.family != "advantageous_only":
        raise UnsupportedModelError("rescaling is defined for the advantageous_only family")
    if params.mutation.family != "gaussian":
        raise UnsupportedModelError("rescaling expects the plain gaussian mutation family")
    if params.dim != 1:
        raise UnsupportedModelError("rescaling implemented for d = 1")
    return replace(
        params,
        fixation=replace(params.fixation, family="rescaled_advantageous"),
        mutation=replace(params.mutation, family="gaussian_size_tilted"),
    )


# ---------------------------------------------------------------------------
# reference set


@dataclass(frozen=True)
class ReferenceBox:
    """Product set B(center, radius) x [y_lo, y_hi] used as a return anchor."""

    center: np.ndarray
    radius: float
    y_lo: float
    y_hi: float

    def sample(self, gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform draws: (x (size, d), y (size,))."""
        d = len(self.center)
        direction = gen.normal(size=(size, d))
        direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
        radii = self.radius * gen.random(size) ** (1.0 / d)
        x = self.center + direction * radii[:, None]
        y = gen.uniform(self.y_lo, self.y_hi, size)
        return x, y


def reference_set(params: ModelParams) -> ReferenceBox:
    """Canonical small product set in the bulk: ball of radius tau/2 at
    -tau e_1, crossed with y in [1/2, 2]."""
    center = np.zeros(params.dim)
    center[0] = -params.mutation.tau
    return ReferenceBox(center=center, radius=params.mutation.tau / 2.0, y_lo=0.5, y_hi=2.0)


# ---------------------------------------------------------------------------
# hypothesis validation


@dataclass(frozen=True)
class HypothesisCheck:
    code: str
    status: str  # "satisfied" | "violated" | "not_applicable"
    detail: str


@dataclass
class HypothesisReport:
    """Status of the structural hypotheses H1-H11 for one parameter set."""

    checks: dict[str, HypothesisCheck]
    dim: int
    fixation: FixationSpec

    _DESCRIPTIONS = {
        "H1": "arrival rate continuous in the size variable",
        "H2": "growth rate locally Lipschitz",
        "H3": "fixation probability bounded on compacts",
        "H4": "mutation measure finite",
        "H5": "arrival rate positive for positive size",
        "H6": "mutation density bounded below on an annulus",
        "H7": "growth decays to -infinity along some ray",
        "H8": "fixation probability strictly positive",
        "H9": "advantageous-only jump structure",
        "H10": "mutation measure has a bounded density",
        "H11": "normalized jump-density ratio uniformly bounded",
    }

    def required_codes(self) -> list[str]:
        req = ["H1", "H2", "H3", "H4", "H5", "H6", "H7"]
        # positivity (H8) or sign structure (H9): whichever the family targets
        req.append("H9" if self.fixation.advantageous else "H8")
        if self.dim >= 2:
            req.append("H11")
        return req

    def routing_ok(self) -> tuple[bool, list[str]]:
        """Whether the main existence/convergence guarantees are in force."""
        missing = [c for c in self.required_codes() if self.checks[c].status != "satisfied"]
        return (not missing, missing)

    def lines(self) -> list[str]:
        out = []
        required = set(self.required_codes())
        for code in sorted(self.checks, key=lambda c: int(c[1:])):
            chk = self.checks[code]
            tag = "required" if code in required else "informational"
            out.append(f"{code:4s} [{chk.status:>14s}] ({tag}) {self._DESCRIPTIONS[code]}: {chk.detail}")
        ok, missing = self.routing_ok()
        out.append("overall: " + ("all required hypotheses satisfied" if ok else f"missing {', '.join(missing)}"))
        return out


def validate_hypotheses(params: ModelParams) -> HypothesisReport:
    """Decide the structural hypotheses H1-H11 in closed form.

    The families are closed, so each hypothesis holds or fails by the
    fixation family, the signs of m_nu and a, and the dimension; each
    check's detail states the reason.
    """
    fixation, mutation, growth = params.fixation, params.mutation, params.growth
    adv = fixation.advantageous
    has_nu = mutation.m_nu > 0.0
    no_nu = "m_nu = 0: the mutation measure is zero"

    def decide(holds: bool, why: str, why_not: str) -> tuple[str, str]:
        return ("satisfied", why) if holds else ("violated", why_not)

    decided = {
        "H1": ("satisfied", "f(y) = mu sigma^2 y^2 / 4 is continuous"),
        "H2": ("satisfied", "r(x) = r0 - a ||x||^2 is smooth, hence locally Lipschitz"),
        "H3": ("satisfied", f"{fixation.family} g is at most g_bound(R) on ||x|| <= R"),
        "H4": decide(has_nu, f"{mutation.family} measure with m_nu = {mutation.m_nu:g} is finite",
                     no_nu),
        "H5": ("satisfied", f"f(y) > 0 for y > 0 (mu = {params.arrival.mu:g})"),
        "H6": decide(has_nu, "a Gaussian density is positive on every annulus", no_nu),
        "H7": decide(growth.a > 0.0, f"r(R e1) = {growth.r0:g} - {growth.a:g} R^2 -> -inf",
                     "a = 0: growth does not decay along any ray"),
        "H8": decide(not adv, "g_max expit(s dr) > 0 for every finite dr",
                     f"{fixation.family} family vanishes on outward mutations"),
        "H9": decide(adv, f"{fixation.family} g = 0 whenever ||x + w|| >= ||x||",
                     "deleterious-ok family accepts outward mutations"),
        "H10": ("satisfied", "density at most m_nu (2 pi tau^2)^(-d/2) "
                             "(alternative route to H9 only)"),
        "H11": (("not_applicable", "only constrains d >= 2") if params.dim == 1 else
                decide(has_nu, "Gaussian density ratio bounded on the reference shell", no_nu)),
    }
    return HypothesisReport(
        checks={code: HypothesisCheck(code, status, detail)
                for code, (status, detail) in decided.items()},
        dim=params.dim, fixation=fixation)


# ---------------------------------------------------------------------------
# convenience constructor


# flat name -> (component field of ModelParams, or None for its own field; field)
_FLAT_FIELDS = {
    "dim": (None, "dim"), "v": (None, "v"), "sigma": (None, "sigma"),
    "gamma_n": (None, "gamma_n"), "r0": ("growth", "r0"), "a": ("growth", "a"),
    "mu": ("arrival", "mu"), "fixation_family": ("fixation", "family"),
    "g_max": ("fixation", "g_max"), "s": ("fixation", "s"),
    "mutation_family": ("mutation", "family"), "m_nu": ("mutation", "m_nu"),
    "tau": ("mutation", "tau"),
}


def flat_params(params: ModelParams) -> dict:
    """The scalar fields of params under the flat names default_params takes."""
    return {name: getattr(getattr(params, part) if part else params, fld)
            for name, (part, fld) in _FLAT_FIELDS.items()}


def default_params(**overrides) -> ModelParams:
    """ModelParams() with flat overrides for the scalar fields of every
    component spec, e.g. default_params(r0=4.0, v=0.1,
    fixation_family="advantageous_only"); the names are those of flat_params.
    """
    unknown = sorted(set(overrides) - set(_FLAT_FIELDS))
    if unknown:
        raise DomainError(f"unknown parameter overrides: {unknown}")
    params = ModelParams()
    parts: dict = {part: {} for part, _ in _FLAT_FIELDS.values()}
    for name, value in overrides.items():
        part, fld = _FLAT_FIELDS[name]
        parts[part][fld] = value
    return replace(params, **parts.pop(None), **{part: replace(getattr(params, part), **kw)
                                                 for part, kw in parts.items()})
