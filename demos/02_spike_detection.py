"""Spiked covariance and the detection threshold
================================================

Plant rank-one signal directions of increasing strength into an isotropic
noise covariance and watch when they detach from the Marchenko-Pastur bulk.
Theory says a spike becomes detectable (and its eigenvector informative)
once theta exceeds sigma2 (1 + sqrt(q)).
"""
import numpy as np

from rmtkd import (MPModel, bbp_threshold, classify, compute_covariance,
                   eig_sym, fit_sigma2, init_sigma2, sample_spiked)

d, n, sigma2 = 100, 1000, 1.0
q = d / n
crit = bbp_threshold(sigma2, q)
print(f"d={d} n={n}: detection threshold theta* = {crit:.3f}\n")

print("theta/theta*   detected   |cos(v_hat, v)|")
for mult in (0.3, 0.8, 1.0, 1.5, 3.0, 10.0):
    theta = mult * crit
    am, dirs = sample_spiked(d, n, sigma2, [(theta, None)], seed=42)
    spectrum, vecs = eig_sym(compute_covariance(am), n_samples=n)
    s2_star, _ = fit_sigma2(spectrum, init_sigma2(spectrum, 0.5))
    part = classify(spectrum, vecs, MPModel(sigma2=s2_star, q=spectrum.q))
    if part.k:
        align = abs(float(part.spike_eigenvectors[0] @ dirs[0]))
        print(f"  {mult:8.1f}     yes        {align:.3f}")
    else:
        print(f"  {mult:8.1f}     no         -")

# Several spikes of distinct strengths: each spike eigenvector pairs off
# with its own planted direction.
print("\nthree spikes at 5x / 10x / 20x the threshold:")
strengths = [20 * crit, 10 * crit, 5 * crit]
am, dirs = sample_spiked(d, n, sigma2, [(t, None) for t in strengths], seed=7)
spectrum, vecs = eig_sym(compute_covariance(am), n_samples=n)
s2_star, _ = fit_sigma2(spectrum, init_sigma2(spectrum, 0.5))
part = classify(spectrum, vecs, MPModel(sigma2=s2_star, q=spectrum.q))
print(f"k = {part.k}, top eigenvalues {np.round(spectrum.eigenvalues[:4], 2)}")
cos = np.abs(part.spike_eigenvectors @ dirs.T)
for i in range(part.k):
    j = int(np.argmax(cos[i]))
    print(f"  spike {i} -> planted direction {j}, |cos| = {cos[i, j]:.3f}")
