"""Closed-form means versus Monte Carlo simulation.

Walks the core identity of the package: the expected value of the random
sum driven by the mixture point process has a closed form, and simulating
the process reproduces it. Builds a two-component model, compares
evaluate() against mc_mean() at a few points, then writes a quantile
envelope to envelope.csv.
"""

import numpy as np

from stochtaylor import (
    ComponentParams,
    RngStream,
    SteModel,
    envelope,
    envelope_to_csv,
    evaluate,
    mc_mean,
    sample_pattern,
)

# A two-component model: a gently correlated component plus a degenerate
# (purely deterministic) one.
model = SteModel(
    d=1,
    components=(
        ComponentParams(mu_a=0.8, sigma_a=0.3, mu_n=(1.2,), sigma_n=(0.2,), rho=(0.5,)),
        ComponentParams(mu_a=1.5, sigma_a=0.0, mu_n=(0.5,), sigma_n=(0.0,), rho=(0.0,)),
    ),
    x0=(0.0,),
)

print("== one realization of the point process ==")
pattern = sample_pattern(model, RngStream(42, 0))
print(f"event count v = {pattern.count} (Poisson with mean {model.lam:g})")
for j in range(pattern.count):
    print(f"  event {j}: a = {pattern.a[j]:+.4f}, n = {pattern.n[j][0]:+.4f}")

print()
print("== closed form vs Monte Carlo mean (100000 realizations) ==")
print(f"{'x':>5} {'closed form':>12} {'mc mean':>12} {'stderr':>10} {'|diff|/se':>10}")
# Each call consumes one child stream per block of 1024 realizations, so
# independent comparisons get their own master seed.
for i, x in enumerate((0.5, 1.0, 2.0, 3.5)):
    exact = evaluate(model, [x])
    mean, stderr = mc_mean(model, [x], 100000, RngStream(100 + i, 0))
    print(
        f"{x:5.2f} {exact:12.6f} {mean:12.6f} {stderr:10.6f} "
        f"{abs(mean - exact) / stderr:10.2f}"
    )

print()
print("== envelope over a grid ==")
grid = np.linspace(0.2, 4.0, 40)[:, None]
env = envelope(model, grid, n_real=10000, alpha=0.05, rng=RngStream(42, 2))
coverage = np.mean((env.lower <= env.mean) & (env.mean <= env.upper))
print(f"95% band over {grid.shape[0]} points; mean-curve inside band at {coverage:.0%} of them")
with open("envelope.csv", "w", encoding="utf-8") as handle:
    handle.write(envelope_to_csv(env))
print("wrote envelope.csv (columns x_1, lower, mean, upper)")
