#pragma once
/// \file detection.hpp
/// \brief Single-pulse style detection statistics on dedispersed series.
///
/// After brute-force dedispersion, the search pipeline scans every trial's
/// time series for significant peaks. When the trial DM matches the source
/// the pulse energy re-aligns and the peak S/N is maximal; a slightly wrong
/// trial smears the pulse and the S/N collapses below the noise floor (§II —
/// the reason the DM space cannot be pruned).

#include <cstddef>
#include <vector>

#include "common/array2d.hpp"

namespace ddmc::sky {

/// Peak signal-to-noise of one dedispersed time series:
/// (max − baseline)/σ, with both estimated robustly from the series itself
/// so the pulse does not inflate its own noise term:
///   - baseline = median (even lengths average the middle pair);
///   - σ = 1.4826 · MAD, the median of |x − baseline|;
///   - σ = population standard deviation when the MAD is 0 (more than half
///     the samples equal); a constant series scores 0.
/// Cost: O(n) per series — an exact histogram select, no sort.
/// `detect_best_dm` / `detect_best_beam` allocate one scratch buffer per
/// call and reuse it for every trial and beam.
double series_snr(std::span<const float> series);

/// Result of scanning a (DMs × samples) dedispersed matrix.
struct DetectionResult {
  std::size_t best_trial = 0;  ///< trial index with the highest peak S/N
  double best_snr = 0.0;       ///< that trial's peak S/N
  std::size_t peak_sample = 0; ///< sample index of the peak in that trial
};

/// Scan every trial and report the strongest candidate.
DetectionResult detect_best_dm(ConstView2D<float> dedispersed);

/// Strongest candidate across the beams of one multi-beam observation.
struct BeamCandidate {
  std::size_t beam = 0;
  DetectionResult detection;
};

/// Scan every beam's dedispersed matrix and report the strongest candidate.
/// Equal peak S/N ties break deterministically to the lowest beam index
/// (strictly greater S/N wins, beams scanned in order).
BeamCandidate detect_best_beam(const std::vector<Array2D<float>>& beams);

}  // namespace ddmc::sky
