"""Defaults the command line's parser shares with the library.

This module imports nothing, so building the parser loads no numpy;
``diagnostics`` re-exports the Hill tail names.
"""

DEFAULT_SEED = 0x5EED  # echoed in every report; reproducibility by default

# Hill applied to the positive tail with k rules computed from the full
# sample size reproduces the reference simulation means for symmetrized
# gamma(10) data, (0.37, 0.65, 1.39); the |values| variant sits well
# below them at the two larger k rules, so "positive" is the default of
# the estimator, the experiment and the report alike.
DEFAULT_HILL_TAIL = "positive"
HILL_TAILS = ("positive", "abs")
