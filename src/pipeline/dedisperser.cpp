#include "pipeline/dedisperser.hpp"

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "pipeline/executor.hpp"

namespace ddmc::pipeline {

Dedisperser::Dedisperser(const sky::Observation& obs, std::size_t dms,
                         std::string engine, std::size_t seconds)
    : Dedisperser(dedisp::Plan(obs, dms, seconds), std::move(engine)) {}

Dedisperser Dedisperser::with_output_samples(const sky::Observation& obs,
                                             std::size_t dms,
                                             std::size_t out_samples,
                                             std::string engine) {
  return Dedisperser(dedisp::Plan::with_output_samples(obs, dms, out_samples),
                     std::move(engine));
}

Dedisperser::Dedisperser(dedisp::Plan plan, std::string engine)
    : plan_(std::move(plan)),
      engine_(engine::make_engine(engine, engine_options_)) {}

void Dedisperser::rebuild_engine() {
  engine_ = engine::make_engine(engine_->id(), engine_options_);
  executor_.reset();
}

tuner::TuningResult Dedisperser::tune_for(const ocl::DeviceModel& device) {
  ocl::PlanAnalysis analysis(plan_);
  tuner::TuningResult result = tuner::tune(device, analysis);
  // The model tuner parameterizes the tiled kernel; an engine that does
  // not declare those axes keeps its defaults.
  config_ = engine::restrict_to_axes(
      engine::encode_kernel_config(result.best.config),
      engine_->config_axes(plan_));
  set_device(device);
  return result;
}

tuner::GuidedTuningOutcome Dedisperser::tune_cached(
    tuner::TuningCache& cache, tuner::GuidedTuningOptions options) {
  if (options.engines.empty()) options.engines = {engine_->id()};
  options.engine_options = engine_options_;
  tuner::GuidedTuningOutcome outcome = tuner::tune_guided(plan_, cache, options);
  // Adopt the winner: the race's engine choice is part of the tuning
  // decision, so subsequent dedisperse() calls run it. The adoption must
  // honor the execution mode already selected — a winner that cannot
  // shard fails fast here, not inside a worker pool later.
  if (outcome.engine_id != engine_->id()) {
    auto adopted = engine::make_engine(outcome.engine_id, engine_options_);
    if (execution_ == Execution::kDmSharded) require_sharding(*adopted);
    engine_ = std::move(adopted);
  }
  config_ = outcome.config;
  executor_.reset();
  return outcome;
}

void Dedisperser::set_config(const engine::EngineConfig& config) {
  engine_->validate_config(plan_, config);
  config_ = config;
  executor_.reset();
}

void Dedisperser::set_cpu_options(const dedisp::CpuKernelOptions& options) {
  engine_options_.cpu = options;
  rebuild_engine();
}

void Dedisperser::set_device(const ocl::DeviceModel& device) {
  engine_options_.device = device;
  rebuild_engine();
}

void Dedisperser::set_subband_config(const dedisp::SubbandConfig& config) {
  engine_options_.subband = config;
  rebuild_engine();
}

void Dedisperser::set_execution(Execution execution, std::size_t workers) {
  if (execution == Execution::kDmSharded) require_sharding(*engine_);
  execution_ = execution;
  shard_workers_ = workers;
  executor_.reset();
}

Array2D<float> Dedisperser::dedisperse(ConstView2D<float> input) {
  if (!executor_) {
    ExecutorOptions options;
    options.workers = execution_ == Execution::kDmSharded ? shard_workers_ : 1;
    options.engine = engine_->id();
    options.engine_options = engine_options_;
    executor_ =
        std::make_shared<const Executor>(plan_, config_, std::move(options));
  }
  Array2D<float> out(plan_.dms(), plan_.out_samples());
  const engine::SessionTraffic run = executor_->dedisperse(input, out.view());
  counters_.reset();
  if (run.counter_runs > 0) counters_ = run.counters;
  traffic_.merge(run);
  return out;
}

}  // namespace ddmc::pipeline
