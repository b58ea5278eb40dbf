"""Electric-field noise modelling for cryogenic surface ion traps.

The package covers the full chain from material models to statistical
analysis of heating-rate data:

* :mod:`trapnoise.constants`  -- physical constants and the heating-rate /
  field-noise conversion for a trapped ion.
* :mod:`trapnoise.materials`  -- complex permittivities, resistivity tables,
  sheet resistances, and the two-fluid superconductor model.
* :mod:`trapnoise.layers`     -- Fresnel coefficients of layered media and
  the surface-response integral g_parallel.
* :mod:`trapnoise.noise`      -- fluctuation-dissipation field noise above a
  stack and Johnson-noise budgets of filters, leads, and electrodes.
* :mod:`trapnoise.patches`    -- patch-potential noise kernels on a gapless
  plane and the noise share of a surface region.
* :mod:`trapnoise.inference`  -- power-law and plateau model fits, model
  selection, spline slopes, and fluctuator-model predictions.
* :mod:`trapnoise.configio`   -- config files, dataset CSVs, run manifests.
* :mod:`trapnoise.cli`        -- the ``trapnoise`` command-line interface.
"""

__version__ = "0.1.0"

from .constants import (
    CONSTANTS,
    DomainError,
    PhysicalConstants,
    heating_rate_from_noise,
    noise_from_heating_rate,
    omega_from_hz,
)
from .materials import (
    Conductor,
    FilmSheet,
    LossyDielectric,
    MaterialModel,
    ResistivityTable,
    SCSheetSpec,
    TemperatureRangeError,
    TwoFluidSC,
    Vacuum,
    london_depth,
    parallel_sheet,
    permittivity,
    sheet_resistance,
    ybco_normal_default,
)
from .quadrature import QuadratureFailure, QuadratureResult, adaptive_gk
from .layers import (
    DegenerateInterfaceError,
    GreensResult,
    Layer,
    LayerStack,
    branch_sqrt,
    greens_parallel,
    stack_reflection,
)
from .noise import (
    ElectrodeModel,
    ElectrodeNoise,
    FdtResult,
    FilterCapacitor,
    FilterNetwork,
    LeadModel,
    NoiseBudget,
    RectTrace,
    RegimeWarning,
    WireBond,
    blackbody_noise,
    electrode_resistance,
    fdt_noise,
    filter_effective_resistance,
    jnn_budget,
    lead_resistance,
    skin_depth,
)
from .patches import (
    PatchBudgetError,
    PatchScene,
    PlaneRegion,
    ZetaResult,
    region_noise_integral,
    zeta,
)
from .leastsq import FitFailure, FitResult, levenberg_marquardt
from .smoothing import SmoothingSpline, fit_smoothing_spline
from .inference import (
    FitRangeWarning,
    FreqPowerLawFit,
    HeatingDataset,
    HeatingRecord,
    IllConditionedWarning,
    ModelScore,
    SlopeCurve,
    SurfaceFitParams,
    SurfaceModelFit,
    TempFitParams,
    TempModelComparison,
    TempModelFit,
    UnusableDataError,
    chi2_sf,
    fit_freq_power_law,
    fit_surface_models,
    fit_temperature_models,
    information_criteria,
    loglog_spline_slope,
    model_gamma1,
    model_gamma2,
    plateau_width,
    synth_dataset,
    synth_surface,
    taf_alpha,
    taf_consistency_chi2,
)
from .configio import (
    ConfigFileError,
    DataFileError,
    load_circuit,
    load_materials,
    load_scene,
    load_stack,
    load_surface_params,
    load_temp_params,
    make_manifest,
    packaged_config,
    read_heating_csv,
    write_heating_csv,
)
