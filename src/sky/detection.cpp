#include "sky/detection.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/expect.hpp"
#include "common/statistics.hpp"

namespace ddmc::sky {

namespace {

/// Order-preserving float → uint32 map: for non-NaN a, b, a < b implies
/// key(a) < key(b) (−0.0 sorts just below +0.0, which `<` calls equal).
std::uint32_t order_key(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return (u & 0x80000000u) != 0 ? ~u : (u | 0x80000000u);
}

float from_order_key(std::uint32_t key) {
  const std::uint32_t u =
      (key & 0x80000000u) != 0 ? (key & 0x7fffffffu) : ~key;
  float v = 0.0f;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

/// Exact median by histogram select, with scratch reused across calls.
///
/// One pass maps every value to its order key and histograms the top
/// kBinBits of the keys; the prefix sums locate the bins holding the middle
/// ranks, and only those keys (a few percent of a noise series) go through
/// nth_element. Cost: O(n + kBins) per median.
class MedianSelect {
 public:
  /// Median of value(0) … value(n−1), n ≥ 1. Even n averages the middle
  /// pair — taking only the upper-middle one biases the baseline high, and
  /// with it the MAD·1.4826 σ estimate.
  template <typename ValueAt>
  double median(std::size_t n, ValueAt value) {
    if (buffer_.size() < kCounters + n) buffer_.resize(kCounters + n);
    std::uint32_t* counts = buffer_.data();
    std::uint32_t* keys = counts + kCounters;
    std::fill(counts, counts + kCounters, 0u);

    // Interleaved counter arrays: neighbouring samples often share a bin,
    // and one array would chain each increment on the previous store.
    std::size_t i = 0;
    for (; i + kWays <= n; i += kWays) {
      for (std::size_t w = 0; w < kWays; ++w) {
        const std::uint32_t key = order_key(value(i + w));
        keys[i + w] = key;
        ++counts[w * kBins + (key >> kShift)];
      }
    }
    for (; i < n; ++i) {
      const std::uint32_t key = order_key(value(i));
      keys[i] = key;
      ++counts[key >> kShift];
    }

    // Ranks of the middle pair (one rank for odd n) and their bins.
    const std::size_t hi = n / 2;
    const std::size_t lo = n % 2 == 0 ? hi - 1 : hi;
    auto bin_count = [counts](std::size_t b) {
      std::size_t c = 0;
      for (std::size_t w = 0; w < kWays; ++w) c += counts[w * kBins + b];
      return c;
    };
    std::size_t bin_lo = 0;
    std::size_t below = 0;  // keys in bins before bin_lo
    std::size_t through = bin_count(0);
    while (through <= lo) {
      below = through;
      through += bin_count(++bin_lo);
    }
    std::size_t bin_hi = bin_lo;
    while (through <= hi) through += bin_count(++bin_hi);

    // Keep only the keys of [bin_lo, bin_hi] (in place: the write index
    // never passes the read index), then select among them.
    std::size_t picked = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t key = keys[j];
      keys[picked] = key;
      picked += (key >> kShift) - bin_lo <= bin_hi - bin_lo ? 1 : 0;
    }
    std::uint32_t* const upper_key = keys + (hi - below);
    std::nth_element(keys, upper_key, keys + picked);
    const double upper = static_cast<double>(from_order_key(*upper_key));
    if (lo == hi) return upper;
    // nth_element left the smaller picked keys in [keys, upper_key); the
    // largest of them is rank lo.
    const double lower = static_cast<double>(
        from_order_key(*std::max_element(keys, upper_key)));
    return 0.5 * (lower + upper);
  }

 private:
  static constexpr unsigned kBinBits = 11;
  static constexpr unsigned kShift = 32 - kBinBits;
  static constexpr std::size_t kBins = std::size_t{1} << kBinBits;
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kCounters = kWays * kBins;

  std::vector<std::uint32_t> buffer_;  ///< kCounters counters, then n keys
};

double series_snr(std::span<const float> series, MedianSelect& select) {
  DDMC_REQUIRE(!series.empty(), "empty series");
  // Robust baseline and noise estimate (median / MAD): the pulse itself
  // must not inflate the noise term, or the aligned trial gets penalized
  // for containing exactly the signal it recovered. MAD·1.4826 estimates σ
  // for Gaussian noise; fall back to the plain standard deviation when the
  // MAD degenerates (more than half the samples identical).
  const std::size_t n = series.size();
  const double baseline =
      select.median(n, [series](std::size_t i) { return series[i]; });
  const float shift = static_cast<float>(baseline);
  double sigma = 1.4826 * select.median(n, [series, shift](std::size_t i) {
    return std::abs(series[i] - shift);
  });
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

DetectionResult detect_best_dm(ConstView2D<float> dedispersed,
                               MedianSelect& select) {
  DDMC_REQUIRE(dedispersed.rows() > 0 && dedispersed.cols() > 0,
               "empty dedispersed matrix");
  DetectionResult result;
  result.best_snr = -1.0;
  for (std::size_t trial = 0; trial < dedispersed.rows(); ++trial) {
    const auto row = dedispersed.row(trial);
    const double s = series_snr(row, select);
    if (s > result.best_snr) {
      result.best_snr = s;
      result.best_trial = trial;
      result.peak_sample = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
    }
  }
  return result;
}

}  // namespace

double series_snr(std::span<const float> series) {
  MedianSelect select;
  return series_snr(series, select);
}

DetectionResult detect_best_dm(ConstView2D<float> dedispersed) {
  MedianSelect select;
  return detect_best_dm(dedispersed, select);
}

BeamCandidate detect_best_beam(const std::vector<Array2D<float>>& beams) {
  DDMC_REQUIRE(!beams.empty(), "need at least one beam");
  MedianSelect select;
  BeamCandidate best;
  best.detection.best_snr = -1.0;
  for (std::size_t b = 0; b < beams.size(); ++b) {
    const DetectionResult res = detect_best_dm(beams[b].cview(), select);
    if (res.best_snr > best.detection.best_snr) {
      best.beam = b;
      best.detection = res;
    }
  }
  return best;
}

}  // namespace ddmc::sky
