"""Exception hierarchy.

Two families matter to callers (and to the CLI's exit codes):

* :class:`ConfigError` -- malformed input documents (config files, line-point
  CSV files, bad field values).  CLI exit code 1.
* :class:`GeometryError` -- domain or numerical failures raised by otherwise
  valid inputs (rays missing the plane, non-invertible lens regions, ...).
  CLI exit code 2.
"""


class CamlineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CamlineError):
    """An input document (config file, line CSV) is malformed or invalid."""


class GeometryError(CamlineError):
    """Base class for domain and numerical failures."""


class NonConvergent(GeometryError):
    """Iterative lens undistortion failed to reach the requested tolerance.

    Signals extreme distortion coefficients or a pixel outside the lens's
    invertible region: no preimage within the iteration cap, or only one on
    a folded branch of the radial polynomial.
    """


class BehindCamera(GeometryError):
    """A 3D point has non-positive depth in the camera frame."""


class RayParallelToPlane(GeometryError):
    """A back-projected ray runs (numerically) parallel to the ground plane."""


class RayAwayFromPlane(GeometryError):
    """A back-projected ray points above the horizon, away from the plane."""


class DegenerateLine(GeometryError):
    """The observed line points are too close together to define a direction."""


class DegenerateGeometry(GeometryError):
    """Scene constraints make the requested estimate unobservable."""


class NoHorizonIntersection(GeometryError):
    """At least one observed line pixel back-projects at or above the horizon."""


class TooFewVisible(GeometryError):
    """Fewer than two synthetic line points project inside the image."""
