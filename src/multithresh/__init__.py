"""Adaptive wavelet estimation by aggregation of thresholded estimators.

Builds term-by-term thresholded wavelet estimators on a training subsample,
one per level offset, and combines them on a learning subsample with
exponential weights (or selects by empirical risk minimization), for the
density model and bounded regression with uniform design on [0, 1].
"""

__version__ = "0.1.0"
