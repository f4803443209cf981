#pragma once
/// \file executor.hpp
/// \brief The one executor that turns (plan, beams) into engine calls.
///
/// §II: "all trial DMs and beams can be processed independently", so a
/// dedispersion run is a grid of (beam, DM-range) engine calls. Production
/// deployments split the DM range across many devices (Sclocco et al.
/// 1601.01165; Barsdell et al. 1201.5380); this module is the host-side
/// step those backends plug into, and the only code that cuts the grid —
/// the batch Dedisperser and the streaming session drive an Executor:
///
///  - DmShardPlanner cuts a plan's DM grid into contiguous per-worker
///    ranges balanced by *modeled cost* (derived from ocl::PerfEstimate),
///    not equal trial counts: a high-DM shard drags a larger input window
///    through memory (its dispersion sweep is longer), so equal-count
///    splits systematically overload the top shard.
///  - Executor runs the beams × shards grid. Nobody sets the shard count:
///    it is the worker count when the engine reports supports_sharding,
///    else 1. With one worker (or a one-job call) every job runs inline on
///    the caller's thread with the engine's own cpu.threads and no pool
///    exists; otherwise the jobs run on an owned pool of that many workers,
///    one engine thread per job. Every shard runs its own engine-native
///    config, adapted from the caller's config by the engine itself
///    (DedispEngine::adapt_config). Results are assembled into the full
///    dms × out_samples matrix by writing each shard's rows at its DM
///    offset, which makes the output *bitwise identical* to one engine call
///    over the whole plan: shard delay tables are sliced, never recomputed
///    (Plan::dm_shard), and the sharding-capable engines are bitwise
///    identical across kernel configurations.
///  - Pool execution is *supervised* (ExecutorOptions::supervision): a
///    failing job is retried with bounded backoff while its failures stay
///    transient; a shard whose retries exhaust is declared dead and its DM
///    range reacquired by the surviving workers — re-partitioned through
///    the same DmShardPlanner cost model and executed as sub-shards, so one
///    dead worker costs throughput, never coverage. Every recovery path
///    preserves the bitwise guarantee (sub-shard plans are slices of
///    slices), jobs that still fail are aggregated into one
///    resilience::ShardExecutionError naming each failed shard and cause,
///    and last_report() exposes attempts/retries/reassignments per shard.
///    Inline jobs are plain engine calls: their errors propagate unchanged.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/array2d.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "ocl/device.hpp"
#include "resilience/supervisor.hpp"

namespace ddmc::pipeline {

/// One contiguous DM range owned by one worker.
struct DmShard {
  std::size_t first_dm = 0;      ///< first trial of the range
  std::size_t dms = 0;           ///< trials in the range
  double modeled_seconds = 0.0;  ///< planner cost estimate for the range
};

/// A full partition of a plan's DM grid.
struct ShardLayout {
  std::vector<DmShard> shards;        ///< contiguous, in DM order
  double modeled_max_seconds = 0.0;   ///< slowest shard (the critical path)
  double modeled_total_seconds = 0.0; ///< Σ modeled_seconds

  /// max / mean modeled shard cost; 1 = perfectly balanced.
  double imbalance() const {
    if (shards.empty() || modeled_total_seconds <= 0.0) return 1.0;
    return modeled_max_seconds * static_cast<double>(shards.size()) /
           modeled_total_seconds;
  }
};

/// Partitions a plan's DM grid into per-worker shards, minimizing the
/// modeled cost of the slowest shard (the quantity that bounds wall time).
///
/// The cost model is anchored on ocl::estimate_cpu_baseline (a
/// PerfEstimate on \p cost_device): its per-trial execution time prices the
/// accumulate work, and a staging term prices reading the shard's unique
/// input window — channels × (out_samples + max delay of the shard's top
/// trial) floats — at the device's achievable bandwidth. The second term is
/// what makes high-DM shards more expensive than low-DM shards of equal
/// trial count.
class DmShardPlanner {
 public:
  explicit DmShardPlanner(const dedisp::Plan& plan,
                          const ocl::DeviceModel& cost_device);
  /// Costs on the §V-D comparison CPU model (the executor's default).
  explicit DmShardPlanner(const dedisp::Plan& plan);

  std::size_t dms() const { return max_delay_.size(); }

  /// Modeled wall seconds for one worker owning [first_dm, first_dm+dms).
  double shard_seconds(std::size_t first_dm, std::size_t dms) const;

  /// Optimal min-max contiguous partition into exactly
  /// min(\p workers, dms()) shards — every shard holds ≥ 1 trial, so more
  /// workers than trials idle the surplus. Shards cover [0, plan.dms())
  /// exactly, in order.
  ShardLayout partition(std::size_t workers) const;

 private:
  std::size_t out_samples_ = 0;
  std::size_t channels_ = 0;
  /// Running max over channels and trials ≤ d — monotone by construction,
  /// so shard cost is monotone in the range end and greedy packing against
  /// a cost threshold is optimal.
  std::vector<std::int64_t> max_delay_;
  double seconds_per_trial_ = 0.0;
  double seconds_per_input_float_ = 0.0;
  double shard_overhead_seconds_ = 0.0;
};

struct ExecutorOptions {
  /// Workers the grid runs on; 0 = machine concurrency. One worker runs
  /// every job inline on the caller's thread; two or more own a pool.
  std::size_t workers = 0;
  /// Registry id of the engine every job runs.
  std::string engine = engine::kDefaultEngineId;
  /// Full factory options for the engine (cpu knobs, subband split,
  /// simulator device — whatever the selected engine reads). Inline jobs
  /// keep cpu.threads; pool jobs run with one engine thread each, since
  /// beams × shards are then the parallel dimension.
  engine::EngineOptions engine_options;
  /// Device model pricing the planner's cost terms.
  ocl::DeviceModel cost_device;
  /// Supervision of the pool jobs: per-shard bounded retry with backoff
  /// and (optionally) reacquisition of a dead worker's DM range by the
  /// surviving workers. The default (one attempt, no reacquisition) fails
  /// fast, with *all* job failures aggregated into one
  /// resilience::ShardExecutionError naming each failed shard and its cause.
  resilience::SupervisionPolicy supervision;

  ExecutorOptions();
};

/// Throws ddmc::invalid_argument naming \p engine and the missing
/// capability when it cannot run DM-sharded execution — the one check
/// behind every front door that requests sharding.
void require_sharding(const engine::DedispEngine& engine);

/// Executes a plan as a beams × DM-shards grid of engine calls.
class Executor {
 public:
  /// \p config must validate against \p plan on the selected engine; every
  /// shard derives its config from it through the engine's own
  /// adapt_config (the tiled engines gcd-shrink their DM tile where a shard
  /// breaks divisibility; the time tile is untouched).
  Executor(dedisp::Plan plan, engine::EngineConfig config,
           ExecutorOptions options = {});

  const dedisp::Plan& plan() const { return plan_; }
  const engine::EngineConfig& config() const { return config_; }
  /// The engine as configured by the caller (inline jobs run it).
  const engine::DedispEngine& engine() const { return *engine_; }
  const ShardLayout& layout() const { return layout_; }
  /// Resolved worker count (ExecutorOptions::workers, 0 → machine).
  std::size_t workers() const { return workers_; }
  std::size_t shard_count() const { return shard_plans_.size(); }
  const dedisp::Plan& shard_plan(std::size_t shard) const {
    return shard_plans_.at(shard);
  }
  const engine::EngineConfig& shard_config(std::size_t shard) const {
    return shard_configs_.at(shard);
  }

  /// Run every (beam, shard) job over the first \p out_samples output
  /// samples of the plan: beams[b] (channels × ≥ that chunk's in_samples)
  /// is dedispersed into outs[b] (dms × ≥out_samples). Fewer samples than
  /// plan().out_samples() run a shorter chunk of the same grid — a
  /// stream's final partial chunk — at the engine's defaults, which every
  /// engine accepts on every plan shape (the tiled engines run 1×1 tiles)
  /// and which the bitwise-exact engines compute identically. Shape misuse
  /// fails synchronously, before any job starts. Pool jobs are supervised
  /// per ExecutorOptions::supervision; the call blocks until every matrix
  /// is assembled. Returns the traffic of every engine call it made,
  /// retried and reacquired ones included — they do the work, so they
  /// count.
  engine::SessionTraffic run(const std::vector<ConstView2D<float>>& beams,
                             const std::vector<View2D<float>>& outs,
                             std::size_t out_samples) const;

  /// One beam over the whole plan into \p out.
  engine::SessionTraffic dedisperse(ConstView2D<float> input,
                                    View2D<float> out) const;

  /// Convenience allocating the output matrix.
  Array2D<float> dedisperse(ConstView2D<float> input) const;

  /// Every beam over the whole plan: all (beam, shard) jobs enter the pool
  /// together, so workers drain beams × shards work items without a
  /// per-beam barrier. outputs[b] is beam b's dms × out_samples matrix.
  std::vector<Array2D<float>> dedisperse_batch(
      const std::vector<ConstView2D<float>>& beams) const;

  /// Supervision counters of the last pool call (attempts, retries and
  /// reassignments per shard). The report is mutated *live* under one
  /// mutex, so this is safe to call from a monitoring thread while a call
  /// is in flight — it returns a consistent snapshot of the counters so
  /// far; a finished call's counters are final, even when the call threw.
  /// A new pool call resets the report; two calls racing on one executor
  /// interleave their counters into it.
  resilience::ShardExecutionReport last_report() const;

 private:
  engine::SessionTraffic run_pool(const std::vector<ConstView2D<float>>& beams,
                                  const std::vector<View2D<float>>& outs,
                                  const std::vector<dedisp::Plan>& plans,
                                  const std::vector<engine::EngineConfig>&
                                      configs) const;

  dedisp::Plan plan_;
  engine::EngineConfig config_;
  ExecutorOptions options_;
  std::size_t workers_ = 1;
  std::shared_ptr<const engine::DedispEngine> engine_;
  /// engine_ with one thread, run by pool jobs (null without a pool).
  std::shared_ptr<const engine::DedispEngine> job_engine_;
  ShardLayout layout_;
  std::vector<dedisp::Plan> shard_plans_;
  std::vector<engine::EngineConfig> shard_configs_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when workers_ == 1
  /// Guards last_report_; workers take it per counter bump, readers per
  /// snapshot — never across an engine call.
  mutable std::mutex report_mutex_;
  mutable resilience::ShardExecutionReport last_report_;
};

}  // namespace ddmc::pipeline
