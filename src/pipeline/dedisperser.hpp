#pragma once
/// \file dedisperser.hpp
/// \brief High-level public API: plan, tune, execute.
///
/// The entry point a downstream pipeline uses:
///
/// \code{.cpp}
///   using namespace ddmc;
///   pipeline::Dedisperser dd(sky::apertif(), /*dms=*/256);   // cpu_tiled
///   dd.tune_for(ocl::amd_hd7970());               // optional
///   Array2D<float> out = dd.dedisperse(input.cview());
/// \endcode
///
/// Execution runs through one pipeline::Executor (pipeline/executor.hpp)
/// over a DedispEngine selected by registry id
/// (engine/registry.hpp): `cpu_tiled` (the tuned SIMD host kernel, the
/// default), `cpu_baseline`, `reference`, `subband`, `ocl_sim`, or any
/// engine registered by downstream code. The Dedisperser never branches on
/// the engine's identity — every mode decision (sharding, tuning) gates on
/// the engine's declared capabilities.
///
/// For samples that *arrive* instead of sitting in memory, use the
/// streaming session in stream/streaming_dedisperser.hpp: it runs any
/// streaming-capable engine chunk-by-chunk, over one or more beams, with
/// bounded-ring ingest and latency accounting.

#include <memory>
#include <optional>
#include <string>

#include "common/array2d.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "ocl/device.hpp"
#include "ocl/sim_engine.hpp"
#include "tuner/tuner.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::pipeline {

/// Execution mode, orthogonal to the engine: it only sets the worker count
/// of the Dedisperser's executor (pipeline/executor.hpp). kSingle runs one
/// engine call over the whole plan on the caller's thread; kDmSharded
/// partitions the DM grid across a worker pool with bitwise-identical
/// output and requires an engine whose capabilities report
/// supports_sharding.
enum class Execution { kSingle, kDmSharded };

class Executor;  // pipeline/executor.hpp

class Dedisperser {
 public:
  /// Plan a full-seconds instance (the paper's shape) on engine \p engine.
  Dedisperser(const sky::Observation& obs, std::size_t dms,
              std::string engine = engine::kDefaultEngineId,
              std::size_t seconds = 1);

  /// Plan with an explicit output length (tests, small demos).
  static Dedisperser with_output_samples(
      const sky::Observation& obs, std::size_t dms, std::size_t out_samples,
      std::string engine = engine::kDefaultEngineId);

  const dedisp::Plan& plan() const { return plan_; }
  const std::string& engine_id() const { return engine_->id(); }
  const engine::DedispEngine& engine() const { return *engine_; }

  /// Auto-tune the kernel configuration for \p device using the performance
  /// model; the chosen config drives tunable engines and the ocl_sim
  /// simulator. Returns the full tuning result for inspection.
  tuner::TuningResult tune_for(const ocl::DeviceModel& device);

  /// Tune-on-first-use by *measurement*: answer from \p cache when it
  /// holds a matching (engine, host, plan) tuple or a transferable
  /// neighbor — zero measurements — and otherwise run the guided search
  /// over the engine's declared config space and store the winner. When
  /// \p options.engines is empty (the default) only this Dedisperser's
  /// engine is tuned; listing several ids races them and this Dedisperser
  /// *adopts the winner* — subsequent dedisperse() calls run the winning
  /// engine under the winning config. Non-tunable engines race as
  /// single-candidate entries. Throws ddmc::invalid_argument when the
  /// winner cannot run the currently selected execution mode (a
  /// non-sharding engine under kDmSharded). \p options.engine_options is
  /// overridden by this Dedisperser's engine options (cpu_options()
  /// included), so the signature matches what dedisperse() will run.
  tuner::GuidedTuningOutcome tune_cached(
      tuner::TuningCache& cache, tuner::GuidedTuningOptions options = {});

  /// Set an explicit engine-native configuration (validated by the engine:
  /// unknown axes and plan-incompatible values throw ddmc::config_error;
  /// a tiled kernel shape is engine::encode_kernel_config of it).
  void set_config(const engine::EngineConfig& config);
  const engine::EngineConfig& config() const { return config_; }

  /// Host-execution knobs (SIMD-vs-scalar, threads) passed to
  /// the engine factory — the knobs of the cpu engines.
  void set_cpu_options(const dedisp::CpuKernelOptions& options);
  const dedisp::CpuKernelOptions& cpu_options() const {
    return engine_options_.cpu;
  }

  /// Device used by the ocl_sim engine (defaults to the HD7970 model).
  void set_device(const ocl::DeviceModel& device);

  /// Two-stage split of the subband engine (adapted to the plan by gcd).
  void set_subband_config(const dedisp::SubbandConfig& config);

  /// Select the execution mode of dedisperse(). kDmSharded splits the DM
  /// grid into cost-balanced shards executed on \p workers pool threads
  /// (0 = machine concurrency; one worker runs inline like kSingle);
  /// throws ddmc::invalid_argument when the engine's capabilities report
  /// !supports_sharding.
  void set_execution(Execution execution, std::size_t workers = 0);
  Execution execution() const { return execution_; }
  std::size_t shard_workers() const { return shard_workers_; }

  /// Execute the selected engine. Input must be channels × ≥in_samples.
  Array2D<float> dedisperse(ConstView2D<float> input);

  /// Traffic counters of the last run on a counter-reporting engine
  /// (ocl_sim; empty otherwise).
  const std::optional<ocl::MemCounters>& last_counters() const {
    return counters_;
  }

  /// Whole-lifetime traffic aggregate across every dedisperse() call on
  /// this instance: runs, busy seconds, FLOP and bytes (exact counters
  /// where the engine reports them), including every shard job in
  /// kDmSharded mode.
  const engine::SessionTraffic& telemetry() const { return traffic_; }

 private:
  Dedisperser(dedisp::Plan plan, std::string engine);
  /// Recreate the engine from engine_options_ (engines are immutable).
  void rebuild_engine();

  dedisp::Plan plan_;
  engine::EngineOptions engine_options_;
  /// Validates configs and gates modes; the executor runs its own copy.
  std::shared_ptr<const engine::DedispEngine> engine_;
  /// Engine-native config; empty = the engine's defaults.
  engine::EngineConfig config_;
  Execution execution_ = Execution::kSingle;
  std::size_t shard_workers_ = 0;
  /// Built by the first dedisperse() after a setter (every setter drops
  /// it) and reused across calls: its worker pool, planner and shard plans
  /// are per-(plan, config, workers), not per call.
  std::shared_ptr<const Executor> executor_;
  std::optional<ocl::MemCounters> counters_;
  engine::SessionTraffic traffic_;
};

}  // namespace ddmc::pipeline
