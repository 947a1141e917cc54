"""Camera roll/pitch estimation from a known ground-plane reference line.

A partially calibrated camera (known intrinsics and distortion, unknown
orientation) observes a straight reference line lying on a horizontal plane a
known height below the camera at a known depth.  This package provides the
forward projection model (pinhole + Brown-Conrady distortion), ray/plane
back-projection, closed-form roll and pitch estimators with residual
diagnostics, and a synthetic ground-truth rig for end-to-end verification.
"""

from . import config, core_geometry, errors, orientation_estimator, synthetic_rig
from .config import *  # noqa: F401,F403
from .core_geometry import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .orientation_estimator import *  # noqa: F401,F403
from .synthetic_rig import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *config.__all__,
    *core_geometry.__all__,
    *errors.__all__,
    *orientation_estimator.__all__,
    *synthetic_rig.__all__,
]
