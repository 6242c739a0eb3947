"""fejerlab: stochastic splitting algorithms on geodesic metric spaces.

The package couples three randomized iterations (proximal point,
Krasnoselskii-Mann, Busemann subgradient) on Hadamard-type spaces with
explicit convergence-rate certificates assembled from moduli of regularity,
and audits those certificates against deterministic Monte-Carlo ensembles.
"""

__version__ = "0.1.0"
