// Unit tests for the radio-astronomy substrate: observational setups,
// dispersion delays (Eq. 1), the delay table and its tile-spread statistics,
// synthetic signal generation and detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/statistics.hpp"
#include "sky/delay.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "sky/signal.hpp"
#include "test_util.hpp"

namespace ddmc::sky {
namespace {

// ------------------------------------------------------------ observation --

TEST(Observation, ApertifMatchesPaperSetup) {
  const Observation obs = apertif();
  EXPECT_EQ(obs.samples_per_second(), 20000u);
  EXPECT_EQ(obs.channels(), 1024u);
  EXPECT_DOUBLE_EQ(obs.f_min_mhz(), 1420.0);
  EXPECT_DOUBLE_EQ(obs.f_max_mhz(), 1720.0);  // 1420 + 1024 × (300/1024)
  EXPECT_NEAR(obs.channel_bw_mhz(), 0.293, 0.001);
  EXPECT_DOUBLE_EQ(obs.dm_first(), 0.0);
  EXPECT_DOUBLE_EQ(obs.dm_step(), 0.25);
  // §IV: "20 MFLOP per DM".
  EXPECT_NEAR(obs.flop_per_dm_per_second(), 20.48e6, 1.0);
}

TEST(Observation, LofarMatchesPaperSetup) {
  const Observation obs = lofar();
  EXPECT_EQ(obs.samples_per_second(), 200000u);
  EXPECT_EQ(obs.channels(), 32u);
  EXPECT_DOUBLE_EQ(obs.f_min_mhz(), 138.0);
  EXPECT_DOUBLE_EQ(obs.f_max_mhz(), 144.0);  // 138 + 32 × (6/32)
  // §IV: "6 MFLOP per DM" (s·c = 6.4e6).
  EXPECT_NEAR(obs.flop_per_dm_per_second(), 6.4e6, 1.0);
}

TEST(Observation, ChannelFrequenciesAscend) {
  const Observation obs = testing::mini_obs();
  for (std::size_t ch = 1; ch < obs.channels(); ++ch) {
    EXPECT_GT(obs.channel_freq_mhz(ch), obs.channel_freq_mhz(ch - 1));
  }
  EXPECT_THROW(obs.channel_freq_mhz(obs.channels()), invalid_argument);
}

TEST(Observation, DmGridIsAffine) {
  const Observation obs("o", 100.0, 4, 100.0, 1.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(obs.dm_value(0), 2.0);
  EXPECT_DOUBLE_EQ(obs.dm_value(3), 3.5);
}

TEST(Observation, ZeroDmVariantKillsTheGrid) {
  const Observation z = apertif().zero_dm_variant();
  EXPECT_DOUBLE_EQ(z.dm_first(), 0.0);
  EXPECT_DOUBLE_EQ(z.dm_step(), 0.0);
  EXPECT_DOUBLE_EQ(z.dm_value(4095), 0.0);
  EXPECT_NE(z.name(), apertif().name());
  // Everything else is untouched.
  EXPECT_EQ(z.channels(), 1024u);
  EXPECT_EQ(z.samples_per_second(), 20000u);
}

TEST(Observation, RejectsNonPhysicalParameters) {
  EXPECT_THROW(Observation("x", 0.0, 4, 100, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 0, 100, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, -5, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 0, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 1, -1, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 1, 0, -1), invalid_argument);
}

TEST(Observation, PaperInstancesLadder) {
  const auto instances = paper_instances();
  ASSERT_EQ(instances.size(), 12u);  // §IV-A: 12 input instances
  EXPECT_EQ(instances.front(), 2u);
  EXPECT_EQ(instances.back(), 4096u);
  for (std::size_t i = 1; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i], instances[i - 1] * 2);
  }
  EXPECT_THROW(paper_instances(1), invalid_argument);
}

// ------------------------------------------------------------------ delay --

TEST(Delay, MatchesEquationOne) {
  // k = 4150 · DM · (f⁻² − f_h⁻²), hand-evaluated.
  const double k = dispersion_delay_seconds(10.0, 100.0, 200.0);
  const double expected = 4150.0 * 10.0 * (1.0 / 1e4 - 1.0 / 4e4);
  EXPECT_NEAR(k, expected, 1e-12);
}

TEST(Delay, ZeroDmAndReferenceFrequencyGiveZero) {
  EXPECT_DOUBLE_EQ(dispersion_delay_seconds(0.0, 100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(dispersion_delay_seconds(50.0, 150.0, 150.0), 0.0);
}

TEST(Delay, MonotoneIncreasingInDm) {
  double prev = -1.0;
  for (double dm = 0.0; dm <= 100.0; dm += 12.5) {
    const double k = dispersion_delay_seconds(dm, 120.0, 180.0);
    EXPECT_GT(k, prev);
    prev = k;
  }
}

TEST(Delay, LowerFrequenciesLagMore) {
  const double low = dispersion_delay_seconds(30.0, 110.0, 200.0);
  const double mid = dispersion_delay_seconds(30.0, 150.0, 200.0);
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, 0.0);
}

TEST(Delay, RejectsInvalidArguments) {
  EXPECT_THROW(dispersion_delay_seconds(-1.0, 100, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_seconds(1.0, 0.0, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_seconds(1.0, 300, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_samples(1.0, 100, 200, 0.0),
               invalid_argument);
}

TEST(Delay, SampleRoundingIsNearest) {
  // Pick dm so the delay is 2.6 samples: expect 3.
  const double seconds = dispersion_delay_seconds(1.0, 100.0, 200.0);
  const double rate = 2.6 / seconds;
  EXPECT_EQ(dispersion_delay_samples(1.0, 100.0, 200.0, rate), 3);
}

// ------------------------------------------------------------ delay table --

TEST(DelayTable, ShapeAndMonotonicity) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  EXPECT_EQ(table.dms(), 8u);
  EXPECT_EQ(table.channels(), obs.channels());
  for (std::size_t ch = 0; ch < table.channels(); ++ch) {
    for (std::size_t dm = 1; dm < table.dms(); ++dm) {
      EXPECT_GE(table.delay(dm, ch), table.delay(dm - 1, ch))
          << "dm=" << dm << " ch=" << ch;
    }
  }
  for (std::size_t dm = 0; dm < table.dms(); ++dm) {
    for (std::size_t ch = 1; ch < table.channels(); ++ch) {
      EXPECT_LE(table.delay(dm, ch), table.delay(dm, ch - 1))
          << "higher channels must not lag more";
    }
  }
}

TEST(DelayTable, FirstRowIsZeroWhenDmStartsAtZero) {
  const DelayTable table(testing::mini_obs(), 4);
  for (std::size_t ch = 0; ch < table.channels(); ++ch) {
    EXPECT_EQ(table.delay(0, ch), 0);
  }
}

TEST(DelayTable, MaxDelaySitsAtLowestChannelHighestDm) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  EXPECT_EQ(table.max_delay(), table.delay(7, 0));
  EXPECT_GT(table.max_delay(), 0);
}

TEST(DelayTable, ZeroDmVariantHasAllZeroDelays) {
  const DelayTable table(testing::mini_obs().zero_dm_variant(), 8);
  for (std::size_t dm = 0; dm < 8; ++dm)
    for (std::size_t ch = 0; ch < table.channels(); ++ch)
      EXPECT_EQ(table.delay(dm, ch), 0);
  EXPECT_EQ(table.max_delay(), 0);
}

TEST(DelayTable, TileSpreadsDegenerateForSingleTrialTiles) {
  const DelayTable table(testing::mini_obs(), 8);
  const SpreadStats s = table.tile_spreads(1);
  EXPECT_DOUBLE_EQ(s.total_spread, 0.0);
  EXPECT_EQ(s.max_spread, 0);
  EXPECT_EQ(s.rows, 8u * table.channels());
}

TEST(DelayTable, TileSpreadsMatchHandComputation) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  const SpreadStats s = table.tile_spreads(4);
  double expected_total = 0.0;
  std::int64_t expected_max = 0;
  for (std::size_t tile = 0; tile < 2; ++tile) {
    for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
      const std::int64_t spread =
          table.delay(tile * 4 + 3, ch) - table.delay(tile * 4, ch);
      expected_total += static_cast<double>(spread);
      expected_max = std::max(expected_max, spread);
    }
  }
  EXPECT_DOUBLE_EQ(s.total_spread, expected_total);
  EXPECT_EQ(s.max_spread, expected_max);
  EXPECT_EQ(s.rows, 2u * obs.channels());
}

TEST(DelayTable, LargerTilesSpreadAtLeastAsMuchPerRow) {
  const DelayTable table(testing::mini_obs(), 8);
  const SpreadStats s2 = table.tile_spreads(2);
  const SpreadStats s8 = table.tile_spreads(8);
  const double per_row2 = s2.total_spread / static_cast<double>(s2.rows);
  const double per_row8 = s8.total_spread / static_cast<double>(s8.rows);
  EXPECT_GE(per_row8, per_row2);
  EXPECT_GE(s8.max_spread, s2.max_spread);
}

TEST(DelayTable, TileSpreadsRejectNonDividingTiles) {
  const DelayTable table(testing::mini_obs(), 8);
  EXPECT_THROW(table.tile_spreads(3), invalid_argument);
  EXPECT_THROW(table.tile_spreads(0), invalid_argument);
}

TEST(DelayTable, ApertifDelaysSmallerThanLofar) {
  // The physical reason Apertif offers more reuse (§IV): higher band ⇒
  // smaller per-trial delay steps.
  const DelayTable ap(apertif(), 64);
  const DelayTable lo(lofar(), 64);
  EXPECT_LT(ap.tile_spreads(64).total_spread /
                static_cast<double>(ap.channels()),
            lo.tile_spreads(64).total_spread /
                static_cast<double>(lo.channels()));
}

// ----------------------------------------------------------------- signal --

TEST(Signal, NoiseIsDeterministicPerSeed) {
  const Observation obs = testing::mini_obs();
  Array2D<float> a(obs.channels(), 128), b(obs.channels(), 128);
  generate_noise(obs, a.view(), NoiseParams{1.0, 0.0, 5});
  generate_noise(obs, b.view(), NoiseParams{1.0, 0.0, 5});
  testing::expect_same_matrix(a, b);
}

TEST(Signal, NoiseMomentsRoughlyMatch) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 4096);
  generate_noise(obs, m.view(), NoiseParams{2.0, 10.0, 3});
  RunningStats rs;
  for (std::size_t ch = 0; ch < m.rows(); ++ch)
    for (float v : m.row(ch)) rs.add(v);
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Signal, PulsarLandsAtDispersedArrivalTimes) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 256);  // starts all-zero
  PulsarParams p;
  p.dm = 1.0;
  p.period_s = 10.0;  // only one pulse inside the window
  p.width_s = 0.01;   // one sample wide
  p.amplitude = 3.0;
  p.first_pulse_s = 0.2;
  inject_pulsar(obs, m.view(), p);
  const double f_top = obs.f_max_mhz();
  for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
    const std::int64_t delay = dispersion_delay_samples(
        p.dm, obs.channel_freq_mhz(ch), f_top, obs.sampling_rate());
    const auto start = static_cast<std::size_t>(20 + delay);
    ASSERT_LT(start, m.cols());
    EXPECT_EQ(m(ch, start), 3.0f) << "channel " << ch;
  }
}

TEST(Signal, PulsesClipAtMatrixEdge) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 16);  // too short for the delays
  PulsarParams p;
  p.dm = 5.0;  // max delay far beyond 16 samples
  p.first_pulse_s = 0.0;
  EXPECT_NO_THROW(inject_pulsar(obs, m.view(), p));
}

TEST(Signal, MakeObservationDataCombinesNoiseAndPulse) {
  const Observation obs = testing::mini_obs();
  PulsarParams p;
  p.dm = 0.0;
  p.amplitude = 50.0;
  p.first_pulse_s = 0.3;
  p.period_s = 10.0;
  p.width_s = 0.01;
  const Array2D<float> m =
      make_observation_data(obs, 128, p, NoiseParams{0.1, 0.0, 1});
  // At DM 0 every channel pulses at the same sample.
  for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
    EXPECT_GT(m(ch, 30), 40.0f);
  }
}

TEST(Signal, RejectsWrongShapesAndParameters) {
  const Observation obs = testing::mini_obs();
  Array2D<float> wrong(obs.channels() + 1, 64);
  EXPECT_THROW(generate_noise(obs, wrong.view(), NoiseParams{}),
               invalid_argument);
  Array2D<float> ok(obs.channels(), 64);
  PulsarParams bad;
  bad.period_s = 0.0;
  EXPECT_THROW(inject_pulsar(obs, ok.view(), bad), invalid_argument);
  bad.period_s = 1.0;
  bad.width_s = 0.0;
  EXPECT_THROW(inject_pulsar(obs, ok.view(), bad), invalid_argument);
}

// -------------------------------------------------------------- detection --

TEST(Detection, SeriesSnrOfConstantIsZero) {
  const std::vector<float> flat(100, 2.0f);
  EXPECT_EQ(series_snr(flat), 0.0);
}

TEST(Detection, SeriesSnrGrowsWithPeakHeight) {
  std::vector<float> a(100, 0.0f), b(100, 0.0f);
  for (std::size_t i = 0; i < 100; ++i) {
    a[i] = static_cast<float>((i * 37 % 11)) * 0.01f;
    b[i] = a[i];
  }
  a[50] += 5.0f;
  b[50] += 15.0f;
  EXPECT_GT(series_snr(b), series_snr(a));
}

TEST(Detection, EmptySeriesRejected) {
  const std::vector<float> empty;
  EXPECT_THROW(series_snr(empty), invalid_argument);
}

TEST(Detection, EvenLengthMedianAveragesTheMiddlePair) {
  // Regression: median_inplace used to take the upper-middle element of an
  // even-length series, biasing the baseline high and the MAD·1.4826 σ
  // estimate with it. For {0, 1, 2, 10} (every step exact in binary):
  //   baseline = (1 + 2) / 2           = 1.5
  //   |x − 1.5| = {1.5, 0.5, 0.5, 8.5} → MAD = (0.5 + 1.5) / 2 = 1.0
  //   σ = 1.4826,  SNR = (10 − 1.5) / 1.4826
  const std::vector<float> series = {0.0f, 1.0f, 2.0f, 10.0f};
  EXPECT_DOUBLE_EQ(series_snr(series), (10.0 - 1.5) / 1.4826);
  // The upper-middle bias would have produced (10 − 2) / (1.4826 · 2).
  EXPECT_NE(series_snr(series), (10.0 - 2.0) / (1.4826 * 2.0));

  // Odd lengths keep the single middle element: {0, 1, 10} → baseline 1,
  // |x − 1| = {1, 0, 9} → MAD 1, σ = 1.4826.
  const std::vector<float> odd = {0.0f, 1.0f, 10.0f};
  EXPECT_DOUBLE_EQ(series_snr(odd), (10.0 - 1.0) / 1.4826);
}

TEST(Detection, FindsRowWithStrongestPeak) {
  Array2D<float> m(4, 64);
  Rng rng(2);
  for (std::size_t r = 0; r < 4; ++r)
    for (auto& v : m.row(r)) v = rng.next_float(-0.1f, 0.1f);
  m(2, 17) = 9.0f;
  const DetectionResult res = detect_best_dm(m.cview());
  EXPECT_EQ(res.best_trial, 2u);
  EXPECT_EQ(res.peak_sample, 17u);
  EXPECT_GT(res.best_snr, 5.0);
}

// ------------------------------------------- detection: select ≡ oracle --

// The nth_element median that series_snr used before the histogram select,
// kept verbatim as the test oracle: the select must reproduce its results
// exactly (==), not merely approximately.
namespace nth_element_oracle {

double median_inplace(std::vector<float>& values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = static_cast<double>(values[mid]);
  if (values.size() % 2 != 0) return upper;
  const double lower = static_cast<double>(
      *std::max_element(values.begin(), values.begin() + mid));
  return 0.5 * (lower + upper);
}

double series_snr(std::span<const float> series) {
  DDMC_REQUIRE(!series.empty(), "empty series");
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

}  // namespace nth_element_oracle

// Value distributions that stress the select's rank bookkeeping. NaN stays
// out: the oracle's nth_element is undefined on it.
enum class SeriesShape {
  kGaussian,      // dedispersed noise, sometimes with a pulse
  kQuantized,     // u8-like integers: long runs of equal keys in one bin
  kConstantRuns,  // > half the samples equal: MAD = 0, stddev fallback
  kNegative,      // every value below zero, across binades
  kSignedZeros,   // ±0.0 mixed with a few small values
  kInfinities,    // Gaussian with a minority of ±inf
};

constexpr SeriesShape kAllShapes[] = {
    SeriesShape::kGaussian,     SeriesShape::kQuantized,
    SeriesShape::kConstantRuns, SeriesShape::kNegative,
    SeriesShape::kSignedZeros,  SeriesShape::kInfinities};

std::string shape_name(SeriesShape shape) {
  switch (shape) {
    case SeriesShape::kGaussian: return "gaussian";
    case SeriesShape::kQuantized: return "quantized";
    case SeriesShape::kConstantRuns: return "constant-runs";
    case SeriesShape::kNegative: return "negative";
    case SeriesShape::kSignedZeros: return "signed-zeros";
    case SeriesShape::kInfinities: return "infinities";
  }
  return "?";
}

void fill_series(SeriesShape shape, std::span<float> out, Rng& rng) {
  const std::size_t n = out.size();
  const float inf = std::numeric_limits<float>::infinity();
  switch (shape) {
    case SeriesShape::kGaussian:
      for (auto& v : out) v = static_cast<float>(3.0 + 2.0 * rng.next_normal());
      if (rng.next_below(2) == 0) out[rng.next_below(n)] += 25.0f;
      break;
    case SeriesShape::kQuantized: {
      const auto levels = 2 + rng.next_below(15);
      for (auto& v : out) {
        v = static_cast<float>(rng.next_below(levels)) + 120.0f;
      }
      break;
    }
    case SeriesShape::kConstantRuns: {
      const float c = rng.next_float(-4.0f, 4.0f);
      std::fill(out.begin(), out.end(), c);
      // Fewer than half the samples differ (possibly none).
      const std::size_t others = rng.next_below((n + 1) / 2);
      for (std::size_t k = 0; k < others; ++k) {
        out[rng.next_below(n)] = rng.next_float(-50.0f, 50.0f);
      }
      break;
    }
    case SeriesShape::kNegative:
      for (auto& v : out) {
        v = -std::ldexp(rng.next_float(1.0f, 2.0f),
                        static_cast<int>(rng.next_below(20)) - 10);
      }
      break;
    case SeriesShape::kSignedZeros:
      for (auto& v : out) {
        switch (rng.next_below(4)) {
          case 0: v = -0.0f; break;
          case 1: v = 0.0f; break;
          default: v = rng.next_float(-1e-3f, 1e-3f); break;
        }
      }
      break;
    case SeriesShape::kInfinities:
      for (auto& v : out) v = static_cast<float>(rng.next_normal());
      // A minority, so baseline and MAD stay finite (inf − inf is NaN).
      for (std::size_t k = 0; k < n / 4; ++k) {
        out[rng.next_below(n)] = rng.next_below(2) == 0 ? inf : -inf;
      }
      break;
  }
}

std::vector<std::size_t> equivalence_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 70; ++n) lengths.push_back(n);
  for (std::size_t n : {499, 500, 501, 20000}) lengths.push_back(n);
  return lengths;
}

TEST(DetectionEquivalence, SeriesSnrMatchesTheNthElementOracle) {
  Rng rng(14);
  for (SeriesShape shape : kAllShapes) {
    for (std::size_t n : equivalence_lengths()) {
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<float> series(n);
        fill_series(shape, series, rng);
        ASSERT_EQ(series_snr(series), nth_element_oracle::series_snr(series))
            << shape_name(shape) << " n=" << n << " rep=" << rep;
      }
    }
  }
}

void expect_same_detection(const DetectionResult& got,
                           const DetectionResult& want,
                           const std::string& where) {
  EXPECT_EQ(got.best_trial, want.best_trial) << where;
  EXPECT_EQ(got.best_snr, want.best_snr) << where;
  EXPECT_EQ(got.peak_sample, want.peak_sample) << where;
}

TEST(DetectionEquivalence, MatrixScansMatchTheNthElementOracle) {
  // One scratch buffer serves every trial and beam of a call, including
  // beams whose rows differ in length, so mix the shapes across rows.
  Rng rng(41);
  for (std::size_t cols : {1, 2, 7, 64, 499, 500, 501, 20000}) {
    std::vector<Array2D<float>> beams;
    for (std::size_t b = 0; b < 3; ++b) {
      Array2D<float> m(5, cols + b % 2);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        fill_series(kAllShapes[rng.next_below(std::size(kAllShapes))],
                    m.row(r), rng);
      }
      const std::string where =
          "cols=" + std::to_string(m.cols()) + " beam=" + std::to_string(b);
      expect_same_detection(detect_best_dm(m.cview()),
                            nth_element_oracle::detect_best_dm(m.cview()),
                            where);
      beams.push_back(std::move(m));
    }
    const BeamCandidate got = detect_best_beam(beams);
    const BeamCandidate want = nth_element_oracle::detect_best_beam(beams);
    EXPECT_EQ(got.beam, want.beam) << "cols=" << cols;
    expect_same_detection(got.detection, want.detection,
                          "beams, cols=" + std::to_string(cols));
  }
}

}  // namespace
}  // namespace ddmc::sky
