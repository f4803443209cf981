#include "loadgen.hpp"

#include <algorithm>
#include <cstring>
#include <random>

#include "dedisp/reference.hpp"
#include "sky/signal.hpp"

namespace perfbench {

using ddmc::Array2D;
using ddmc::ConstView2D;
using ddmc::View2D;
using ddmc::dedisp::Plan;

namespace {

/// Add a pulse whose per-channel arrival follows \p plan's own delay
/// table, so it re-aligns exactly at its trial. Columns wrap at \p wrap.
void inject(const Plan& plan, View2D<float> data, const Pulse& pulse,
            const PulseShape& shape, std::size_t wrap) {
  for (std::size_t ch = 0; ch < plan.channels(); ++ch) {
    const auto delay =
        static_cast<std::size_t>(plan.delays().delay(pulse.trial, ch));
    for (std::size_t i = 0; i < shape.width; ++i) {
      data(ch, (pulse.column + delay + i) % wrap) +=
          static_cast<float>(shape.amplitude);
    }
  }
}

/// Pulse in output columns [lo, lo + span) at a random trial.
Pulse random_pulse(const Plan& plan, std::size_t lo, std::size_t span,
                   const PulseShape& shape, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> trial(0, plan.dms() - 1);
  std::uniform_int_distribution<std::size_t> column(
      lo + span / 5, lo + span * 4 / 5 - shape.width);
  Pulse p;
  p.trial = trial(rng);
  p.column = column(rng);
  return p;
}

ExpectedRows reference_rows(const Plan& plan, ConstView2D<float> input,
                            std::vector<std::size_t> trials) {
  std::sort(trials.begin(), trials.end());
  trials.erase(std::unique(trials.begin(), trials.end()), trials.end());
  ExpectedRows expected;
  for (std::size_t trial : trials) {
    // A one-trial shard slices the delay row bit-for-bit, so its reference
    // output is exactly row `trial` of the full reference.
    const Array2D<float> row =
        ddmc::dedisp::dedisperse_reference(plan.dm_shard(trial, 1), input);
    expected.trials.push_back(trial);
    expected.rows.emplace_back(row.row(0).begin(), row.row(0).end());
  }
  return expected;
}

ddmc::sky::NoiseParams noise(std::uint64_t seed) {
  ddmc::sky::NoiseParams n;
  n.sigma = 1.0;
  n.seed = seed;
  return n;
}

}  // namespace

bool ExpectedRows::matches(ConstView2D<float> out, std::size_t offset,
                           const std::vector<std::size_t>& which) const {
  const auto check = [&](std::size_t k) {
    return std::memcmp(out.row(trials[k]).data(), rows[k].data() + offset,
                       out.cols() * sizeof(float)) == 0;
  };
  if (which.empty()) {
    for (std::size_t k = 0; k < trials.size(); ++k) {
      if (!check(k)) return false;
    }
    return true;
  }
  return std::all_of(which.begin(), which.end(), check);
}

BlockPool make_block_pool(const Plan& plan, std::size_t blocks,
                          const PulseShape& shape, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> any_trial(0, plan.dms() - 1);
  BlockPool pool;
  for (std::size_t b = 0; b < blocks; ++b) {
    Array2D<float> input(plan.channels(), plan.in_samples());
    ddmc::sky::generate_noise(plan.observation(), input.view(),
                              noise(seed * 1000 + b));
    const Pulse pulse = random_pulse(plan, 0, plan.out_samples(), shape, rng);
    inject(plan, input.view(), pulse, shape, plan.in_samples());
    pool.expected.push_back(reference_rows(
        plan, input.cview(),
        {0, pulse.trial, any_trial(rng), plan.dms() - 1}));
    pool.inputs.push_back(std::move(input));
    pool.pulses.push_back(pulse);
  }
  return pool;
}

PeriodicStream make_periodic_stream(const Plan& chunk_plan,
                                    std::size_t chunks,
                                    const PulseShape& shape,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  PeriodicStream s;
  s.chunk_samples = chunk_plan.out_samples();
  const std::size_t cols = chunks * s.chunk_samples;
  s.period = Array2D<float>(chunk_plan.channels(), cols);
  ddmc::sky::generate_noise(chunk_plan.observation(), s.period.view(),
                            noise(seed));
  for (std::size_t j = 0; j < chunks; ++j) {
    s.pulses.push_back(random_pulse(chunk_plan, j * s.chunk_samples,
                                    s.chunk_samples, shape, rng));
    inject(chunk_plan, s.period.view(), s.pulses.back(), shape, cols);
  }

  // Reference over one period of the cyclic stream: the period followed
  // by its own first max_delay samples.
  s.overlap = chunk_plan.max_delay();
  Array2D<float> extended(chunk_plan.channels(), cols + s.overlap);
  for (std::size_t ch = 0; ch < chunk_plan.channels(); ++ch) {
    for (std::size_t t = 0; t < cols + s.overlap; ++t) {
      extended(ch, t) = s.period(ch, t % cols);
    }
  }
  std::uniform_int_distribution<std::size_t> any_trial(0,
                                                       chunk_plan.dms() - 1);
  std::vector<std::size_t> fixed = {0, any_trial(rng), chunk_plan.dms() - 1};
  std::vector<std::size_t> trials = fixed;
  for (const Pulse& p : s.pulses) trials.push_back(p.trial);
  const Plan period_plan = Plan::with_output_samples(
      chunk_plan.observation(), chunk_plan.dms(), cols);
  s.expected = reference_rows(period_plan, extended.cview(), trials);

  const auto index_of = [&](std::size_t trial) {
    return static_cast<std::size_t>(
        std::lower_bound(s.expected.trials.begin(), s.expected.trials.end(),
                         trial) -
        s.expected.trials.begin());
  };
  for (const Pulse& p : s.pulses) {
    std::vector<std::size_t> checked;
    for (std::size_t trial : fixed) checked.push_back(index_of(trial));
    checked.push_back(index_of(p.trial));
    s.checked.push_back(std::move(checked));
  }
  return s;
}

}  // namespace perfbench
