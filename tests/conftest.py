"""Shared builders for randomized models used across test modules."""

import math

import numpy as np

from stochtaylor import ComponentParams, GeneralIntensity, RngStream, SteModel
from stochtaylor.fit import _gram_eigen, _trust_region_step


def random_component(gen: np.random.Generator, d: int, sampleable: bool = True) -> ComponentParams:
    """A finite random component; sampleable keeps sum(rho^2) strictly below 1."""
    rho_raw = gen.uniform(-1.0, 1.0, d)
    norm = math.sqrt(float((rho_raw**2).sum()))
    if sampleable and norm > 0.0:
        rho_raw = rho_raw / max(1.0, 1.05 * norm)
    return ComponentParams(
        mu_a=float(gen.uniform(-2.0, 2.0)),
        sigma_a=float(gen.uniform(0.0, 0.8)),
        mu_n=tuple(gen.uniform(-1.0, 1.5, d)),
        sigma_n=tuple(gen.uniform(0.0, 0.5, d)),
        rho=tuple(rho_raw),
    )


def random_model(seed: int, d: int, m: int) -> SteModel:
    gen = RngStream(seed, 0).generator()
    comps = tuple(random_component(gen, d) for _ in range(m))
    return SteModel(
        d=d,
        components=comps,
        x0=tuple(gen.uniform(-0.5, 0.5, d)),
        sigma2=float(gen.uniform(0.0, 1.0)),
    )


def random_intensity(seed: int, d: int, m: int) -> GeneralIntensity:
    """Sampleable mixture with non-uniform weights and a non-integer rate."""
    gen = RngStream(seed, 0).generator()
    comps = tuple(random_component(gen, d) for _ in range(m))
    w = gen.uniform(0.2, 1.0, m)
    w = w / w.sum()
    weights = tuple(float(v) for v in w[:-1])
    weights = weights + (1.0 - math.fsum(weights),)
    return GeneralIntensity(
        lam=float(gen.uniform(0.5, 4.0)),
        weights=weights,
        components=comps,
        d=d,
        x0=(0.0,) * d,
    )


# Gram step against the SVD step: the eigenvalues carry rounding errors of
# about eps * w_max, which perturb a step with Levenberg-Marquardt parameter
# alpha by about K * n * eps * w_max / alpha relative. For alpha >= 1e-6 * w_max
# and K, n <= 40 that is below 4e-7; the largest deviation measured over 6000
# random cases is 5e-9.
STEP_RTOL = 1e-6


def svd_trust_region_step(J, f, Delta, alpha):
    """Moré's trust-region step from the SVD of J, in the operation order of
    the rank-deficient branch of scipy's ``solve_lsq_trust_region``: the
    reference that the Gram form in ``fit._trust_region_step`` is held to."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    uf = U.T @ f
    V = Vt.T
    suf = s * uf

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    alpha_upper = np.linalg.norm(suf) / Delta
    alpha_lower = 0.0
    if alpha == 0:
        alpha = 0.001 * alpha_upper
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V @ (suf / (s**2 + alpha))
    p *= Delta / np.linalg.norm(p)
    return p, alpha


def radius_for(J, f, alpha_star: float) -> float:
    """The trust radius whose exact step has Levenberg-Marquardt parameter alpha_star."""
    U, s, _ = np.linalg.svd(J, full_matrices=False)
    return float(np.linalg.norm(s * (U.T @ f) / (s**2 + alpha_star)))


def gram_and_svd_steps(J, f, Delta, alpha):
    """(p, alpha) of ``fit._trust_region_step`` from the Gram matrix and (p, alpha)
    of the SVD reference."""
    return (
        _trust_region_step(*_gram_eigen(J, J.T @ f), Delta, alpha),
        svd_trust_region_step(J, f, Delta, alpha),
    )
