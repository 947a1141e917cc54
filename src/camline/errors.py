"""Exception hierarchy.

Two families matter to callers (and to the CLI's exit codes):

* :class:`ConfigError`, also a :class:`ValueError` -- malformed input
  documents (config files, line-point CSV files), field values the library
  checks, and files the CLI cannot read or write.  CLI exit code 1.
* :class:`GeometryError` -- domain or numerical failures raised by otherwise
  valid inputs: a pixel the lens cannot invert (:class:`NonConvergent`), line
  pixels too close to fix a direction (:class:`DegenerateLine`), a pixel that
  back-projects at or above the horizon (:class:`NoHorizonIntersection`), a
  synthetic line with fewer than two pixels in the image
  (:class:`TooFewVisible`) and a point behind the camera
  (:class:`BehindCamera`).  Every line in front of and below the camera has
  a pitch, so the estimators have no other failure.  CLI exit code 2.

Every leaf class is raised outside this module.
"""

__all__ = [
    "CamlineError", "ConfigError", "GeometryError", "NonConvergent", "BehindCamera",
    "DegenerateLine", "NoHorizonIntersection", "TooFewVisible",
]


class CamlineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CamlineError, ValueError):
    """An input document or field value is invalid, or a file cannot be read or written."""


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


class DegenerateLine(GeometryError):
    """The observed line points are too close together to define a direction."""


class NoHorizonIntersection(GeometryError):
    """At least one observed line pixel back-projects at or above the horizon."""


class TooFewVisible(GeometryError):
    """Fewer than two synthetic line points project inside the image."""
