"""Write the golden outcomes that ``tests/test_golden.py`` checks exactly.

Run from the repository root::

    PYTHONPATH=src python tests/make_golden.py

Each line is one public call on a seeded input and the ``repr`` of what it
returned, or ``<ErrorName>: <message>`` for what it raised.  ``repr`` of a
float round-trips, so equal lines mean equal bits.  For each lens (none,
mild, strong) it renders 100 scenes over a pose range wide enough that some
lines leave the image, then records ``estimate_orientation`` and
``residual_z_spread``, and on every fifth scene ``central_pixel`` and the
estimate of the reversed pixels.  Some inputs are made to fail:

- every twentieth observation gets one pixel 1e200 px out (``NonConvergent``);
- every twentieth plus ten gets one pixel in the image corner, past the
  strong lens's reach (``NonConvergent`` there, an outlier elsewhere);
- every tenth plus five is one pixel repeated (``DegenerateLine``);
- every seventh ``residual_z_spread`` is taken at a pitch 0.8 rad too low
  (``NoHorizonIntersection``).

The last lines are the reports of one ``sweep`` config.

A change that moves these bits on purpose regenerates the file with this
script and says so in ``CHANGES.md``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from camline import (
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    ReferenceLineObservation,
    SceneConstraints,
    SweepConfig,
    SyntheticScene,
    central_pixel,
    estimate_orientation,
    render_line,
    residual_z_spread,
    sweep,
)

GOLDEN = Path(__file__).with_name("golden_outcomes.txt")

K = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
SC = SceneConstraints(c0=2.0, z0=3.0)
LENSES = {
    "none": DistortionCoefficients(),
    "mild": DistortionCoefficients(k1=-1e-7, p1=1e-6),
    "strong": DistortionCoefficients(k1=-3e-7, p1=1e-6),
}
N_SCENES = 100
SIGMAS = (0.0, 0.5, 1.0, 3.0)


def _outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:  # every outcome is recorded, failures included
        return f"{type(exc).__name__}: {exc}"


def _observation(scene: SyntheticScene, i: int) -> ReferenceLineObservation:
    """The scene's rendered line, corrupted on every fifth scene."""
    uv = render_line(scene).uv_array()
    if i % 20 == 0:
        uv = np.vstack([uv, [[1e200, K.cy]]])
    elif i % 20 == 10:
        uv = np.vstack([uv, [[K.cx + 700.0, K.cy + 350.0]]])
    elif i % 10 == 5:
        uv = np.tile(uv[:1], (len(uv), 1))
    return ReferenceLineObservation.from_array(uv)


def golden_lines() -> list[str]:
    """Every golden line, in file order."""
    lines = []
    for lens_index, (lens, d) in enumerate(LENSES.items()):
        rng = np.random.default_rng((2024, lens_index))
        for i in range(N_SCENES):
            truth = Orientation(roll=rng.uniform(-0.15, 0.15), pitch=rng.uniform(0.2, 1.0))
            scene = SyntheticScene(
                ground_truth=truth,
                sc=SC,
                k=K,
                d=d,
                noise_sigma=SIGMAS[i % len(SIGMAS)],
                rng_seed=1000 * lens_index + i,
            )
            tag = f"{lens} {i}"
            try:
                obs = _observation(scene, i)
            except Exception as exc:
                lines.append(f"{tag} render: {type(exc).__name__}: {exc}")
                continue
            lines.append(f"{tag} estimate: {_outcome(estimate_orientation, obs, K, d, SC)}")
            pitch = truth.pitch - (0.8 if i % 7 == 0 else 0.0)
            probe = Orientation(roll=truth.roll, pitch=pitch)
            lines.append(f"{tag} residual: {_outcome(residual_z_spread, obs, K, d, probe, SC.c0)}")
            if i % 5 == 0:
                lines.append(f"{tag} central: {_outcome(central_pixel, obs, K, d)}")
                reversed_obs = ReferenceLineObservation.from_array(obs.uv_array()[::-1])
                rev = _outcome(estimate_orientation, reversed_obs, K, d, SC)
                lines.append(f"{tag} reversed: {rev}")
    config = SweepConfig(
        base_scene=SyntheticScene(Orientation(), SC, K, LENSES["mild"]),
        noise_sigmas=(0.0, 1.0),
        roll_range=(-0.1, 0.1),
        pitch_range=(0.4, 0.8),
        seeds_per_cell=8,
        base_seed=123,
        k1_scales=(0.0, 1.0, 3.0, 4.0),
    )
    lines.extend(f"sweep {n}: {report!r}" for n, report in enumerate(sweep(config)))
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
    print(f"wrote {GOLDEN}")
