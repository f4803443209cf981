#include "sky/detection.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/expect.hpp"
#include "common/statistics.hpp"

namespace ddmc::sky {

namespace {
/// Median of a scratch vector (partially sorts it in place). Even-length
/// sets average the two middle elements — taking only the upper-middle one
/// biases the baseline high, and with it the MAD·1.4826 σ estimate.
double median_inplace(std::vector<float>& values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = static_cast<double>(values[mid]);
  if (values.size() % 2 != 0) return upper;
  // nth_element left the lower half in [begin, mid); its max is the other
  // middle element.
  const double lower = static_cast<double>(
      *std::max_element(values.begin(), values.begin() + mid));
  return 0.5 * (lower + upper);
}
}  // namespace

double series_snr(std::span<const float> series) {
  DDMC_REQUIRE(!series.empty(), "empty series");
  // Robust baseline and noise estimate (median / MAD): the pulse itself
  // must not inflate the noise term, or the aligned trial gets penalized
  // for containing exactly the signal it recovered. MAD·1.4826 estimates σ
  // for Gaussian noise; fall back to the plain standard deviation when the
  // MAD degenerates (more than half the samples identical).
  std::vector<float> scratch(series.begin(), series.end());
  const double baseline = median_inplace(scratch);
  for (auto& v : scratch) {
    v = std::abs(v - static_cast<float>(baseline));
  }
  double sigma = 1.4826 * median_inplace(scratch);
  if (sigma <= 0.0) {
    RunningStats rs;
    for (float v : series) rs.add(static_cast<double>(v));
    sigma = rs.stddev();
  }
  if (sigma <= 0.0) return 0.0;
  const double peak = static_cast<double>(
      *std::max_element(series.begin(), series.end()));
  return (peak - baseline) / sigma;
}

DetectionResult detect_best_dm(ConstView2D<float> dedispersed) {
  DDMC_REQUIRE(dedispersed.rows() > 0 && dedispersed.cols() > 0,
               "empty dedispersed matrix");
  DetectionResult result;
  result.best_snr = -1.0;
  for (std::size_t trial = 0; trial < dedispersed.rows(); ++trial) {
    const auto row = dedispersed.row(trial);
    const double s = series_snr(row);
    if (s > result.best_snr) {
      result.best_snr = s;
      result.best_trial = trial;
      result.peak_sample = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
    }
  }
  return result;
}

BeamCandidate detect_best_beam(const std::vector<Array2D<float>>& beams) {
  DDMC_REQUIRE(!beams.empty(), "need at least one beam");
  BeamCandidate best;
  best.detection.best_snr = -1.0;
  for (std::size_t b = 0; b < beams.size(); ++b) {
    const DetectionResult res = detect_best_dm(beams[b].cview());
    if (res.best_snr > best.detection.best_snr) {
      best.beam = b;
      best.detection = res;
    }
  }
  return best;
}

}  // namespace ddmc::sky
