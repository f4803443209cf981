// Tests for the beams × DM-shards executor (pipeline/executor.hpp): planner
// cost balance, the thread-budget rule, and the differential guarantee —
// sharded output is bitwise identical to the single-engine batch path
// across shard counts, uneven DM grids, multi-beam batching and streaming
// chunked mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "engine/engine_config.hpp"
#include "engine/registry.hpp"
#include "pipeline/dedisperser.hpp"
#include "pipeline/executor.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "test_util.hpp"

namespace ddmc::pipeline {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using testing::expect_same_matrix;
using testing::mini_obs;
using testing::random_input;
using testing::tile_32x4;

/// Executor on \p workers workers with \p config as its kernel axes.
Executor make_executor(const Plan& plan, const KernelConfig& config,
                       std::size_t workers) {
  ExecutorOptions opts;
  opts.workers = workers;
  return Executor(plan, engine::encode_kernel_config(config), opts);
}

/// Single-engine reference: one kernel call over the whole plan, one thread.
Array2D<float> single_engine(const Plan& plan, const KernelConfig& config,
                             const Array2D<float>& input) {
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  return dedisp::dedisperse_cpu(plan, config, input.cview(), cpu);
}

// ------------------------------------------------------------------ plan --

TEST(DmShardPlan, SlicesTheParentDelayTableBitForBit) {
  const Plan parent = Plan::with_output_samples(mini_obs(), 12, 60);
  const Plan shard = parent.dm_shard(5, 4);
  EXPECT_EQ(shard.dms(), 4u);
  EXPECT_EQ(shard.out_samples(), parent.out_samples());
  EXPECT_EQ(shard.channels(), parent.channels());
  for (std::size_t dm = 0; dm < shard.dms(); ++dm) {
    for (std::size_t ch = 0; ch < shard.channels(); ++ch) {
      ASSERT_EQ(shard.delays().delay(dm, ch),
                parent.delays().delay(5 + dm, ch))
          << "dm " << dm << " ch " << ch;
    }
  }
  // The shard's input window is its own sweep, not the parent's: low-DM
  // shards carry less history.
  EXPECT_EQ(shard.in_samples(),
            shard.out_samples() +
                static_cast<std::size_t>(shard.delays().max_delay()));
  EXPECT_LE(shard.in_samples(), parent.in_samples());
  const Plan low = parent.dm_shard(0, 4);
  EXPECT_LT(low.in_samples(), parent.in_samples());
  // The shard observation's grid starts at the sliced trial.
  EXPECT_DOUBLE_EQ(shard.observation().dm_first(),
                   parent.observation().dm_value(5));

  EXPECT_THROW(parent.dm_shard(5, 8), invalid_argument);
  EXPECT_THROW(parent.dm_shard(0, 0), invalid_argument);
}

// --------------------------------------------------------------- planner --

TEST(DmShardPlanner, PartitionCoversTheGridContiguously) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 24, 60);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {1u, 2u, 3u, 5u, 7u, 24u, 40u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ShardLayout layout = planner.partition(workers);
    // One shard per worker, clamped to the trial count.
    EXPECT_EQ(layout.shards.size(), std::min<std::size_t>(workers, 24));
    std::size_t next = 0;
    for (const DmShard& s : layout.shards) {
      EXPECT_EQ(s.first_dm, next);
      EXPECT_GE(s.dms, 1u);
      EXPECT_GT(s.modeled_seconds, 0.0);
      next += s.dms;
    }
    EXPECT_EQ(next, 24u);
  }
}

TEST(DmShardPlanner, ModeledCostIsBalancedWithinTolerance) {
  // A steep DM grid (large step) makes the top shard's input window much
  // larger than the bottom's, which is exactly what the cost model must
  // absorb: the balanced layout's critical path must not exceed the mean
  // by more than the contiguity granularity allows.
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ShardLayout layout = planner.partition(workers);
    ASSERT_EQ(layout.shards.size(), workers);
    EXPECT_LT(layout.imbalance(), 1.25);
  }
}

TEST(DmShardPlanner, BeatsOrMatchesEqualCountSplits) {
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    double equal_max = 0.0;
    const std::size_t per = 64 / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      equal_max = std::max(equal_max, planner.shard_seconds(w * per, per));
    }
    const ShardLayout layout = planner.partition(workers);
    EXPECT_LE(layout.modeled_max_seconds, equal_max * (1.0 + 1e-12));
  }
}

TEST(DmShardPlanner, MoreWorkersNeverRaiseTheCriticalPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 32, 60);
  const DmShardPlanner planner(plan);
  double prev = planner.partition(1).modeled_max_seconds;
  for (std::size_t workers : {2u, 3u, 4u, 6u, 8u}) {
    const double now = planner.partition(workers).modeled_max_seconds;
    EXPECT_LE(now, prev * (1.0 + 1e-12)) << "workers=" << workers;
    prev = now;
  }
}

TEST(DmShardPlanner, HigherShardsCostMoreAtEqualCounts) {
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  EXPECT_GT(planner.shard_seconds(48, 16), planner.shard_seconds(0, 16));
  EXPECT_THROW(planner.shard_seconds(60, 8), invalid_argument);
  EXPECT_THROW(planner.shard_seconds(0, 0), invalid_argument);
}

// -------------------------------------------------------------- executor --

TEST(Executor, BitwiseIdenticalAcrossShardCounts) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};
  const Array2D<float> expected = single_engine(plan, config, input);

  // 1, 2, primes, and more workers than trials.
  for (std::size_t workers : {1u, 2u, 3u, 5u, 7u, 12u, 19u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const Executor sharded = make_executor(plan, config, workers);
    EXPECT_EQ(sharded.shard_count(), sharded.layout().shards.size());
    // Nobody sets the shard count: one per worker, clamped to the trials.
    EXPECT_EQ(sharded.shard_count(), std::min<std::size_t>(workers, 12));
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

TEST(Executor, HandlesUnevenAndPrimeDmGrids) {
  for (std::size_t dms : {1u, 7u, 13u}) {
    SCOPED_TRACE("dms=" + std::to_string(dms));
    const Plan plan = Plan::with_output_samples(mini_obs(), dms, 60);
    const Array2D<float> input = random_input(plan);
    const KernelConfig config{5, 1, 4, 1};
    const Array2D<float> expected = single_engine(plan, config, input);
    const Executor sharded = make_executor(plan, config, 3);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

TEST(Executor, AdaptsTheDmTileToEachShard) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};  // tile_dm = 4
  // 12 trials over 5 shards: some shard breaks tile 4.
  const Executor sharded = make_executor(plan, config, 5);
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const KernelConfig c =
        engine::decode_kernel_config(sharded.shard_config(i));
    EXPECT_EQ(c.tile_time(), config.tile_time());  // time tile untouched
    EXPECT_EQ(sharded.shard_plan(i).dms() % c.tile_dm(), 0u);
    EXPECT_NO_THROW(c.validate(sharded.shard_plan(i)));
  }
  // A config that does not validate against the parent plan is rejected.
  EXPECT_THROW(make_executor(plan, KernelConfig{7, 1, 1, 1}, 5), config_error);
}

TEST(Executor, RejectsWrongShapes) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 60);
  const Array2D<float> input = random_input(plan);
  const Executor sharded = make_executor(plan, KernelConfig{1, 1, 1, 1}, 2);
  Array2D<float> bad_rows(plan.dms() + 1, plan.out_samples());
  EXPECT_THROW(sharded.dedisperse(input.cview(), bad_rows.view()),
               invalid_argument);
  Array2D<float> short_in(plan.channels(), plan.in_samples() - 1);
  EXPECT_THROW(sharded.dedisperse(short_in.cview()), invalid_argument);
  EXPECT_THROW(sharded.dedisperse_batch({}), invalid_argument);
  // A chunk longer than the plan, or an empty one, is no chunk of it.
  Array2D<float> out(plan.dms(), plan.out_samples() + 1);
  EXPECT_THROW(sharded.run({input.cview()}, {out.view()}, 0),
               invalid_argument);
  EXPECT_THROW(
      sharded.run({input.cview()}, {out.view()}, plan.out_samples() + 1),
      invalid_argument);
}

TEST(Executor, BatchedBeamsMatchThePerBeamPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < 3; ++b) {
    inputs.push_back(random_input(plan, 100 + b));
    views.push_back(inputs.back().cview());
  }
  const Executor sharded = make_executor(plan, config, 4);
  const std::vector<Array2D<float>> got = sharded.dedisperse_batch(views);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(single_engine(plan, config, inputs[b]), got[b]);
  }
}

TEST(Executor, ShardedBatchMatchesTheSequentialBeamPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < 3; ++b) {
    inputs.push_back(random_input(plan, 500 + b));
    views.push_back(inputs.back().cview());
  }
  const std::vector<Array2D<float>> expected =
      make_executor(plan, config, 1).dedisperse_batch(views);
  const std::vector<Array2D<float>> got =
      make_executor(plan, config, 4).dedisperse_batch(views);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(expected[b], got[b]);
  }
}

TEST(Executor, ShorterChunksRunTheSameGrid) {
  // A stream's final partial chunk runs through the same executor: every
  // shard on the chunk's first samples, bitwise equal to one engine call.
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Plan chunk = plan.with_chunk(17);
  const Array2D<float> input = random_input(chunk);
  const Array2D<float> expected =
      single_engine(chunk, KernelConfig{1, 1, 1, 1}, input);
  for (std::size_t workers : {1u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const Executor sharded = make_executor(plan, KernelConfig{5, 2, 4, 2},
                                           workers);
    Array2D<float> out(chunk.dms(), chunk.out_samples());
    const engine::SessionTraffic traffic =
        sharded.run({input.cview()}, {out.view()}, chunk.out_samples());
    EXPECT_EQ(traffic.runs, sharded.shard_count());
    expect_same_matrix(expected, out);
  }
}

// ---------------------------------------------------------- thread budget --

/// What one probe-engine call saw.
struct ProbeCall {
  std::thread::id thread;
  std::size_t cpu_threads = 0;
};

/// Calls of every probe engine; guarded by probe_mutex.
std::mutex probe_mutex;
std::vector<ProbeCall> probe_calls;

/// Forwards to cpu_tiled (so it shards bitwise) and records the calling
/// thread and the cpu.threads it was built with.
class ProbeEngine final : public engine::DedispEngine {
 public:
  explicit ProbeEngine(const engine::EngineOptions& options)
      : inner_(engine::make_engine("cpu_tiled", options)) {}
  const std::string& id() const override { return id_; }
  const engine::EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const engine::EngineOptions& options() const override {
    return inner_->options();
  }
  std::string variant() const override { return inner_->variant(); }

 protected:
  engine::EngineRun execute_impl(const Plan& plan,
                                 const engine::EngineConfig& config,
                                 ConstView2D<float> in,
                                 View2D<float> out) const override {
    {
      std::lock_guard<std::mutex> lock(probe_mutex);
      probe_calls.push_back(
          {std::this_thread::get_id(), options().cpu.threads});
    }
    return inner_->execute(plan, config, in, out);
  }

 private:
  std::string id_ = "engine_test_probe";
  std::shared_ptr<const engine::DedispEngine> inner_;
};

/// Registers the probe once and clears its call log.
void reset_probe() {
  static std::once_flag registered;
  std::call_once(registered, [] {
    engine::EngineRegistry::instance().add(
        "engine_test_probe", [](const engine::EngineOptions& options) {
          return std::make_shared<const ProbeEngine>(options);
        });
  });
  std::lock_guard<std::mutex> lock(probe_mutex);
  probe_calls.clear();
}

/// Threads of this process (Linux: one /proc/self/task entry each), or 0
/// where that is not observable.
std::size_t process_threads() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

TEST(Executor, OneJobGridRunsInlineWithTheCallersThreads) {
  reset_probe();
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  ExecutorOptions opts;
  opts.workers = 1;
  opts.engine = "engine_test_probe";
  opts.engine_options.cpu.threads = 3;
  const std::size_t threads_before = process_threads();
  const Executor inline_grid(plan, engine::EngineConfig{}, opts);
  EXPECT_EQ(process_threads(), threads_before);  // no pool was started
  EXPECT_EQ(inline_grid.shard_count(), 1u);
  inline_grid.dedisperse(input.cview());

  // A pooled executor whose call is one job (one trial, one beam) runs
  // that job inline too.
  const Plan single_trial = Plan::with_output_samples(mini_obs(), 1, 60);
  opts.workers = 2;
  const Executor pooled(single_trial, engine::EngineConfig{}, opts);
  pooled.dedisperse(random_input(single_trial).cview());

  std::lock_guard<std::mutex> lock(probe_mutex);
  ASSERT_EQ(probe_calls.size(), 2u);
  for (const ProbeCall& call : probe_calls) {
    EXPECT_EQ(call.thread, std::this_thread::get_id());
    EXPECT_EQ(call.cpu_threads, 3u);
  }
}

TEST(Executor, PoolGridRunsOneEngineThreadPerJobOffTheCaller) {
  reset_probe();
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  ExecutorOptions opts;
  opts.workers = 2;
  opts.engine = "engine_test_probe";
  opts.engine_options.cpu.threads = 3;
  const std::size_t threads_before = process_threads();
  const Executor pool_grid(plan, engine::EngineConfig{}, opts);
  if (threads_before > 0) {
    EXPECT_EQ(process_threads(), threads_before + 2);  // the two workers
  }
  ASSERT_EQ(pool_grid.shard_count(), 2u);
  pool_grid.dedisperse_batch({input.cview(), input.cview()});

  std::lock_guard<std::mutex> lock(probe_mutex);
  ASSERT_EQ(probe_calls.size(), 4u);  // 2 beams × 2 shards
  std::set<std::thread::id> threads;
  for (const ProbeCall& call : probe_calls) {
    EXPECT_NE(call.thread, std::this_thread::get_id());
    EXPECT_EQ(call.cpu_threads, 1u);
    threads.insert(call.thread);
  }
  EXPECT_LE(threads.size(), 2u);
}

// ---------------------------------------------------------------- wiring --

TEST(Dedisperser, ShardedExecutionKnobIsBitwiseIdentical) {
  const sky::Observation obs = mini_obs();
  Dedisperser single =
      Dedisperser::with_output_samples(obs, 12, 60, "cpu_tiled");
  single.set_config(engine::encode_kernel_config(KernelConfig{5, 2, 4, 2}));
  const Array2D<float> input = random_input(single.plan());
  const Array2D<float> expected = single.dedisperse(input.cview());

  Dedisperser sharded =
      Dedisperser::with_output_samples(obs, 12, 60, "cpu_tiled");
  sharded.set_config(engine::encode_kernel_config(KernelConfig{5, 2, 4, 2}));
  sharded.set_execution(Execution::kDmSharded, 3);
  EXPECT_EQ(sharded.execution(), Execution::kDmSharded);
  expect_same_matrix(expected, sharded.dedisperse(input.cview()));

  // Back to single: the knob is reversible.
  sharded.set_execution(Execution::kSingle);
  expect_same_matrix(expected, sharded.dedisperse(input.cview()));
}

TEST(Dedisperser, ShardedExecutionRequiresTheShardingCapability) {
  // Regression for the old silent-ignore wiring: an engine whose
  // capabilities report !supports_sharding is rejected with an error that
  // names the missing capability, instead of quietly dropping the workers.
  for (const char* id : {"subband", "ocl_sim"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 8, 64, id);
    try {
      dd.set_execution(Execution::kDmSharded, 2);
      FAIL() << "set_execution accepted an engine without supports_sharding";
    } catch (const invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("supports_sharding"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos);
    }
    EXPECT_NO_THROW(dd.set_execution(Execution::kSingle));
  }
  // The capability, not the engine id, is what gates: every
  // sharding-capable engine takes the knob.
  for (const char* id : {"cpu_tiled", "cpu_baseline", "reference"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 8, 64, id);
    EXPECT_NO_THROW(dd.set_execution(Execution::kDmSharded, 2));
  }
}

// ------------------------------------------------------------- streaming --

/// Reassemble sink chunks into one dms × total matrix by first_sample.
struct Collector {
  Array2D<float> total;
  std::size_t emitted = 0;

  Collector(std::size_t dms, std::size_t out) : total(dms, out) {}

  void operator()(const stream::StreamChunk& chunk) {
    ASSERT_LE(chunk.first_sample + chunk.out_samples, total.cols());
    for (std::size_t dm = 0; dm < total.rows(); ++dm) {
      for (std::size_t t = 0; t < chunk.out_samples; ++t) {
        total(dm, chunk.first_sample + t) = chunk.output(dm, t);
      }
    }
    emitted += chunk.out_samples;
  }
};

TEST(StreamingDedisperser, ShardedChunksAreBitwiseEqualToBatch) {
  const std::size_t total_out = 145;  // 4 full chunks of 32 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  const Array2D<float> expected = dedisp::dedisperse_cpu(
      batch, KernelConfig{1, 1, 1, 1}, input.cview(), cpu);

  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    Collector collect(batch.dms(), total_out);
    stream::StreamingOptions opts;
    opts.async = async;
    opts.cpu.threads = 1;
    opts.shard_workers = 3;
    stream::StreamingDedisperser session(batch.with_chunk(32), tile_32x4(),
                                         std::ref(collect), opts);
    session.push(input.cview());
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
}

/// What a multi-beam session emitted: per-beam reassembled matrices and
/// the session's traffic.
struct MultiBeamRun {
  std::vector<Array2D<float>> totals;
  engine::SessionTraffic traffic;
};

/// Stream \p views (one per beam) through a multi-beam session in
/// 32-sample chunks of \p batch's plan.
MultiBeamRun stream_beams(const Plan& batch,
                          const std::vector<ConstView2D<float>>& views,
                          std::size_t shard_workers) {
  MultiBeamRun result;
  for (std::size_t b = 0; b < views.size(); ++b) {
    result.totals.emplace_back(batch.dms(), batch.out_samples());
  }
  stream::StreamingOptions opts;
  opts.cpu.threads = 1;
  opts.shard_workers = shard_workers;
  opts.beams = views.size();
  stream::StreamingDedisperser session(
      batch.with_chunk(32), tile_32x4(),
      [&](const stream::StreamChunk& chunk) {
        for (std::size_t b = 0; b < views.size(); ++b) {
          for (std::size_t dm = 0; dm < batch.dms(); ++dm) {
            for (std::size_t t = 0; t < chunk.out_samples; ++t) {
              result.totals[b](dm, chunk.first_sample + t) =
                  chunk.outputs[b](dm, t);
            }
          }
        }
      },
      opts);
  session.push(views);
  session.close();
  result.traffic = session.telemetry();
  return result;
}

TEST(MultiBeamSession, ShardedChunksMatchTheUnshardedSession) {
  const std::size_t total_out = 80;  // 2 full chunks of 32 + partial 16
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const std::size_t beams = 2;
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < beams; ++b) {
    inputs.push_back(random_input(batch, 900 + b));
    views.push_back(inputs.back().cview());
  }

  const MultiBeamRun plain = stream_beams(batch, views, 0);
  const MultiBeamRun sharded = stream_beams(batch, views, 3);
  for (std::size_t b = 0; b < beams; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    const Array2D<float> expected =
        single_engine(batch, KernelConfig{1, 1, 1, 1}, inputs[b]);
    expect_same_matrix(expected, plain.totals[b]);
    expect_same_matrix(expected, sharded.totals[b]);
  }
}

TEST(MultiBeamSession, TelemetryCountsEveryEngineCall) {
  // 2 beams × 3 chunks (2 full of 32 + the 16-sample flush): every engine
  // call of every chunk counts, the flush chunk's included.
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 80);
  const Array2D<float> a = random_input(batch, 31);
  const Array2D<float> b = random_input(batch, 32);
  const std::vector<ConstView2D<float>> views = {a.cview(), b.cview()};

  const MultiBeamRun plain = stream_beams(batch, views, 0);
  EXPECT_EQ(plain.traffic.runs, 6u);  // one engine call per beam and chunk
  EXPECT_GT(plain.traffic.flop, 0.0);
  EXPECT_GT(plain.traffic.gflops(), 0.0);

  const MultiBeamRun sharded = stream_beams(batch, views, 3);
  EXPECT_EQ(sharded.traffic.runs, 18u);  // × 3 DM shards per beam
  EXPECT_DOUBLE_EQ(sharded.traffic.flop, plain.traffic.flop);
}

// --------------------------------------------------------------- traffic --

TEST(Executor, TrafficCountsEveryShardRun) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Executor sharded = make_executor(plan, KernelConfig{5, 2, 4, 2}, 3);
  const Array2D<float> input = random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  const engine::SessionTraffic t1 = sharded.dedisperse(input.cview(), out.view());
  EXPECT_EQ(t1.runs, sharded.shard_count());
  EXPECT_GT(t1.flop, 0.0);
  EXPECT_GT(t1.bytes, 0.0);
  EXPECT_GT(t1.engine_seconds, 0.0);
  EXPECT_GT(t1.gflops(), 0.0);

  // Each call reports its own runs; a beam batch reports beams × shards.
  EXPECT_EQ(sharded.dedisperse(input.cview(), out.view()).runs,
            sharded.shard_count());
  Array2D<float> out2(plan.dms(), plan.out_samples());
  EXPECT_EQ(sharded
                .run({input.cview(), input.cview()}, {out.view(), out2.view()},
                     plan.out_samples())
                .runs,
            2 * sharded.shard_count());
}

TEST(Dedisperser, TelemetrySurvivesReconfiguration) {
  Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 12, 60);
  dd.set_config(engine::encode_kernel_config(KernelConfig{5, 2, 4, 2}));
  dd.set_execution(Execution::kDmSharded, 3);
  const Array2D<float> input = random_input(dd.plan());
  dd.dedisperse(input.cview());
  const std::size_t sharded_runs = dd.telemetry().runs;
  EXPECT_GT(sharded_runs, 1u);  // one engine run per shard

  // Switching back to single replaces the sharded executor; the traffic
  // it accumulated must not be lost.
  dd.set_execution(Execution::kSingle);
  dd.dedisperse(input.cview());
  const engine::SessionTraffic total = dd.telemetry();
  EXPECT_EQ(total.runs, sharded_runs + 1);
  EXPECT_GT(total.gflops(), 0.0);
}

TEST(StreamingDedisperser, TelemetryCountsEveryChunkRun) {
  const std::size_t total_out = 145;  // 4 full chunks of 32 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);

  for (std::size_t shard_workers : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("shard_workers " + std::to_string(shard_workers));
    Collector collect(batch.dms(), total_out);
    stream::StreamingOptions opts;
    opts.cpu.threads = 1;
    opts.shard_workers = shard_workers;
    stream::StreamingDedisperser session(batch.with_chunk(32), tile_32x4(),
                                         std::ref(collect), opts);
    session.push(input.cview());
    session.close();
    const engine::SessionTraffic traffic = session.telemetry();
    const std::size_t chunks = 5;  // 145 / 32 rounded up
    // One engine run per shard and chunk, the flush chunk included.
    EXPECT_EQ(traffic.runs, chunks * std::max<std::size_t>(shard_workers, 1));
    EXPECT_GT(traffic.flop, 0.0);
    EXPECT_GT(traffic.gflops(), 0.0);
  }
}

// ------------------------------------------------------- randomized sweep --

TEST(ShardedRandomSlowTier, RandomInstancesStayBitwiseIdentical) {
  // Random plan shapes (uneven grids, prime trial counts, varied DM steps)
  // × random worker counts: the sharded path must never diverge from the
  // single-engine path by a single bit.
  Rng rng(20260730);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t dms = 1 + static_cast<std::size_t>(rng.next_below(40));
    const std::size_t out = 16 + static_cast<std::size_t>(rng.next_below(80));
    const double dm_step = 0.25 * (1.0 + static_cast<double>(
                                             rng.next_below(12)));
    const std::size_t workers =
        1 + static_cast<std::size_t>(rng.next_below(9));
    SCOPED_TRACE("iter=" + std::to_string(iter) + " dms=" +
                 std::to_string(dms) + " out=" + std::to_string(out) +
                 " step=" + std::to_string(dm_step) + " workers=" +
                 std::to_string(workers));
    const Plan plan =
        Plan::with_output_samples(mini_obs(8, dm_step), dms, out);
    const Array2D<float> input = random_input(plan, 7000 + iter);
    const KernelConfig config{1, 1, 1, 1};
    const Array2D<float> expected = single_engine(plan, config, input);
    const Executor sharded = make_executor(plan, config, workers);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

}  // namespace
}  // namespace ddmc::pipeline
