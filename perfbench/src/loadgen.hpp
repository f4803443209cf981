#pragma once
/// \file loadgen.hpp
/// \brief Seeded load generator: bounded pools of synthetic channelized
/// data with one dispersed pulse per block or chunk at a known trial, and
/// the reference rows the correctness gate compares outputs against.
///
/// Everything here runs before timing starts. Pools are replayed during
/// the timed phase, so memory and generation cost stay bounded however
/// long a run measures. The same seed gives the same pool.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/array2d.hpp"
#include "dedisp/plan.hpp"

namespace perfbench {

/// A pulse injected at trial \c trial whose dedispersed peak lands on
/// output column \c column (of its block, or of the stream period).
struct Pulse {
  std::size_t trial = 0;
  std::size_t column = 0;
};

struct PulseShape {
  double amplitude = 1.0;  ///< per-channel height over unit-sigma noise
  std::size_t width = 2;   ///< samples
};

/// Reference output rows of sampled trials, computed by
/// dedisp::dedisperse_reference outside the timed phase.
struct ExpectedRows {
  std::vector<std::size_t> trials;
  std::vector<std::vector<float>> rows;  ///< rows[k] is trial trials[k]

  /// True when row trials[k] of \p out equals rows[k][offset, offset +
  /// out.cols()) bitwise, for every k in \p which (all when empty).
  bool matches(ddmc::ConstView2D<float> out, std::size_t offset,
               const std::vector<std::size_t>& which = {}) const;
};

/// Independent blocks, each a full input of \p plan with one pulse.
struct BlockPool {
  std::vector<ddmc::Array2D<float>> inputs;
  std::vector<Pulse> pulses;
  std::vector<ExpectedRows> expected;  ///< per block
};

BlockPool make_block_pool(const ddmc::dedisp::Plan& plan, std::size_t blocks,
                          const PulseShape& shape, std::uint64_t seed);

/// One period of a cyclic sample stream of \p chunks chunk lengths of
/// \p chunk_plan, with one pulse per chunk. Replaying the period forever
/// gives a stream whose dedispersed output is periodic too, so the
/// reference rows of one period check every chunk of any run.
struct PeriodicStream {
  ddmc::Array2D<float> period;  ///< channels × chunks · chunk samples
  std::size_t chunk_samples = 0;
  std::size_t overlap = 0;      ///< the chunk plan's max_delay
  std::vector<Pulse> pulses;    ///< pulses[j] lies in chunk j of the period
  ExpectedRows expected;        ///< rows over one whole period
  /// Indices into expected checked on chunk j: a few fixed trials plus
  /// the trial of pulses[j].
  std::vector<std::vector<std::size_t>> checked;

  std::size_t chunks() const { return pulses.size(); }
};

PeriodicStream make_periodic_stream(const ddmc::dedisp::Plan& chunk_plan,
                                    std::size_t chunks,
                                    const PulseShape& shape,
                                    std::uint64_t seed);

}  // namespace perfbench
