"""Automatic Target Recognition (ATR), the paper's motivating workload.

The paper's ATR algorithm (Fig. 1) has four functional blocks::

    Target Detection -> FFT -> IFFT -> Compute Distance

processed once per image frame under a fixed frame period. Two layers
live here:

- a **real implementation** working on synthetic imagery
  (:mod:`~repro.apps.atr.image`, :mod:`~repro.apps.atr.templates`,
  :mod:`~repro.apps.atr.blocks`, :mod:`~repro.apps.atr.reference`):
  threshold-based detection with union-find labeling, FFT template
  correlation, inverse transform, and scale-based distance estimation —
  pure numpy, deterministic under a seed;
- the **profiled task model** the simulator consumes
  (:mod:`~repro.apps.atr.profile`): per-block execution times at the
  peak clock rate and inter-block payload sizes, exactly the numbers of
  the paper's Fig. 6, plus a ``measure_profile`` helper that re-derives
  a profile by timing the real blocks.
"""

from repro.apps.atr.blocks import (
    compute_distances,
    detect_targets,
    fft_correlate,
    ifft_peaks,
    label_components,
    label_components_reference,
    template_bank_spectra,
)
from repro.apps.atr.image import SceneSpec, generate_scene
from repro.apps.atr.matching import MultiScaleATR, TemplateVariant, expand_bank
from repro.apps.atr.profile import (
    PAPER_PROFILE,
    PAPER_PROFILE_RAW,
    BlockProfile,
    TaskProfile,
    measure_profile,
)
from repro.apps.atr.reference import ATRPipeline, ATRResult, Detection
from repro.apps.atr.templates import TEMPLATE_BANK, Template

__all__ = [
    "SceneSpec",
    "generate_scene",
    "Template",
    "TEMPLATE_BANK",
    "detect_targets",
    "fft_correlate",
    "ifft_peaks",
    "compute_distances",
    "label_components",
    "label_components_reference",
    "template_bank_spectra",
    "ATRPipeline",
    "ATRResult",
    "Detection",
    "MultiScaleATR",
    "TemplateVariant",
    "expand_bank",
    "BlockProfile",
    "TaskProfile",
    "PAPER_PROFILE",
    "PAPER_PROFILE_RAW",
    "measure_profile",
]
