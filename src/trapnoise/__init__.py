"""Electric-field noise modelling for cryogenic surface ion traps, from
material models to statistical analysis of heating-rate data.

The package root holds only ``__version__``.  Import each name from its
module, which loads only that module and the modules it needs:

* :mod:`trapnoise.constants`  -- physical constants and the heating-rate /
  field-noise conversion for a trapped ion.
* :mod:`trapnoise.materials`  -- complex permittivities, resistivity tables,
  sheet resistances, and the two-fluid superconductor model.
* :mod:`trapnoise.quadrature` -- adaptive Gauss-Kronrod integration.
* :mod:`trapnoise.layers`     -- Fresnel coefficients of layered media and
  the surface-response integral g_parallel.
* :mod:`trapnoise.noise`      -- fluctuation-dissipation field noise above a
  stack and Johnson-noise budgets of filters, leads, and electrodes.
* :mod:`trapnoise.patches`    -- patch-potential noise kernels on a gapless
  plane and the noise share of a surface region.
* :mod:`trapnoise.leastsq`    -- Levenberg-Marquardt least squares.
* :mod:`trapnoise.smoothing`  -- GCV smoothing splines and their refits.
* :mod:`trapnoise.inference`  -- power-law and plateau model fits, model
  selection, spline slopes, and fluctuator-model predictions.
* :mod:`trapnoise.configio`   -- config files, dataset CSVs, run manifests.
* :mod:`trapnoise.cli`        -- the ``trapnoise`` command-line interface.
"""

__version__ = "0.1.0"
