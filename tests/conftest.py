import sys
from pathlib import Path

import numpy as np
import pytest

from nugamma.cffit import MinimizeResult

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def stalled_minimize():
    """Stand-in for ``cffit.minimize`` that reports non-convergence."""
    def stalled(fun, x0, **kwargs):
        return MinimizeResult(x=np.asarray(x0), fun=fun(x0), success=False,
                              message="Maximum number of iterations has been exceeded.",
                              nit=500, nfev=1000)
    return stalled
