#include "stream/streaming_dedisperser.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "resilience/error.hpp"
#include "resilience/fault_injection.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::stream {

namespace {

/// The one place StreamingOptions maps onto engine-factory options: every
/// consumer site (session executor, degradation target, tuning) goes
/// through here, so a new EngineOptions field is wired once, not at each
/// site — missing one silently computes with defaults.
engine::EngineOptions engine_factory_options(const StreamingOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.cpu = options.cpu;
  engine_options.subband = options.subband;
  return engine_options;
}

/// The session's executor over \p plan, gated on the engine's streaming
/// capability — and on its sharding capability when shard_workers ≥ 2
/// requests DM sharding. The chunker widens its carried overlap by the
/// engine's input_padding.
std::unique_ptr<const pipeline::Executor> session_executor(
    const dedisp::Plan& plan, engine::EngineConfig config,
    const StreamingOptions& options) {
  DDMC_REQUIRE(options.beams > 0, "a streaming session needs a beam");
  pipeline::ExecutorOptions executor;
  executor.workers = options.shard_workers >= 2 ? options.shard_workers : 1;
  executor.engine = options.engine;
  executor.engine_options = engine_factory_options(options);
  executor.supervision = options.shard_supervision;
  auto built = std::make_unique<const pipeline::Executor>(
      plan, std::move(config), std::move(executor));
  DDMC_REQUIRE(built->engine().capabilities().supports_streaming,
               "engine '" + options.engine +
                   "' cannot run a streaming session: its capability "
                   "supports_streaming is false");
  if (options.shard_workers >= 2) pipeline::require_sharding(built->engine());
  return built;
}

/// Carried-overlap width of a supervised session: when the watchdog can
/// degrade, the chunker must already carry enough real samples for the
/// *fallback* engine too — its input_padding may exceed the session
/// engine's (subband reads past in_samples), and a mid-session switch
/// cannot widen windows retroactively.
std::size_t session_input_padding(const StreamingOptions& options,
                                  const engine::DedispEngine& engine) {
  std::size_t padding = engine.capabilities().input_padding;
  if (!options.supervision.enabled || options.supervision.degrade_after == 0) {
    return padding;
  }
  const std::string target = resilience::select_degrade_engine(
      options.engine, options.supervision);
  if (target.empty()) return padding;
  const std::shared_ptr<const engine::DedispEngine> fallback =
      engine::make_engine(target, engine_factory_options(options));
  return std::max(padding, fallback->capabilities().input_padding);
}

}  // namespace

StreamingDedisperser::BeamOutputs::BeamOutputs(std::size_t beams,
                                               std::size_t dms,
                                               std::size_t out_samples) {
  matrices.reserve(beams);
  views.reserve(beams);
  cviews.reserve(beams);
  for (std::size_t b = 0; b < beams; ++b) {
    matrices.emplace_back(dms, out_samples);
    views.push_back(matrices.back().view());
    cviews.push_back(matrices.back().cview());
  }
}

StreamingDedisperser::StreamingDedisperser(dedisp::Plan chunk_plan,
                                           engine::EngineConfig config,
                                           Sink sink,
                                           StreamingOptions options)
    : plan_(std::move(chunk_plan)),
      sink_(std::move(sink)),
      options_(options),
      executor_(session_executor(plan_, std::move(config), options_)),
      out_full_(options_.beams, plan_.dms(), plan_.out_samples()) {
  const std::size_t padding =
      session_input_padding(options_, executor_->engine());
  chunkers_.reserve(options_.beams);
  for (std::size_t b = 0; b < options_.beams; ++b) {
    chunkers_.emplace_back(plan_, padding);
  }
  windows_.reserve(options_.beams);
  feed_views_.reserve(options_.beams);
  if (options_.async) {
    job_input_ = Array2D<float>(options_.beams * channels(),
                                chunkers_[0].window_samples());
    job_windows_.reserve(options_.beams);
  }
  health_.active_engine = options_.engine;
  auto& registry = telemetry::MetricsRegistry::instance();
  const telemetry::Labels session = {{"session", tracker_.session()}};
  retries_metric_ = registry.counter("ddmc.stream.retries_total", session);
  chunks_retried_metric_ =
      registry.counter("ddmc.stream.chunks_retried_total", session);
  chunks_skipped_metric_ =
      registry.counter("ddmc.stream.chunks_skipped_total", session);
  overruns_metric_ =
      registry.counter("ddmc.stream.deadline_overruns_total", session);
  degradations_metric_ =
      registry.counter("ddmc.stream.degradations_total", session);
  if (options_.supervision.enabled && options_.supervision.degrade_after > 0) {
    pipeline::ExecutorOptions degrade;
    degrade.workers = 1;
    degrade.engine = resilience::select_degrade_engine(options_.engine,
                                                       options_.supervision);
    degrade.engine_options = engine_factory_options(options_);
    if (!degrade.engine.empty()) {
      // The session config as the target engine adapts it (its defaults
      // where the config does not apply).
      const engine::EngineConfig config =
          engine::make_engine(degrade.engine, degrade.engine_options)
              ->adapt_config(plan_, executor_->config());
      degrade_executor_ = std::make_unique<const pipeline::Executor>(
          plan_, config, std::move(degrade));
    }
  }
  if (options_.async) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

StreamingDedisperser::TunedPlan StreamingDedisperser::resolve_tuning(
    dedisp::Plan chunk_plan, tuner::TuningCache& cache,
    StreamingOptions options, tuner::GuidedTuningOptions tuning) {
  if (tuning.engines.empty()) tuning.engines = {options.engine};
  tuning.engine_options = engine_factory_options(options);
  tuner::GuidedTuningOutcome outcome =
      tuner::tune_guided(chunk_plan, cache, tuning);
  // Adopt the winner *before* the session is built: the delegated
  // constructor gates the streaming capability and sizes the chunker's
  // carried overlap from options.engine, so a winner with a larger
  // input_padding gets a widened window instead of zero padding.
  options.engine = outcome.engine_id;
  return TunedPlan{std::move(chunk_plan), std::move(options),
                   std::move(outcome)};
}

StreamingDedisperser::StreamingDedisperser(dedisp::Plan chunk_plan,
                                           tuner::TuningCache& cache,
                                           Sink sink,
                                           StreamingOptions options,
                                           tuner::GuidedTuningOptions tuning)
    : StreamingDedisperser(resolve_tuning(std::move(chunk_plan), cache,
                                          std::move(options),
                                          std::move(tuning)),
                           std::move(sink)) {}

StreamingDedisperser::StreamingDedisperser(TunedPlan tuned, Sink sink)
    : StreamingDedisperser(std::move(tuned.plan), tuned.outcome.config,
                           std::move(sink), std::move(tuned.options)) {
  tuning_outcome_ = std::move(tuned.outcome);
}

StreamingDedisperser::~StreamingDedisperser() {
  try {
    close();
  } catch (...) {
    // close() rethrows sink/kernel failures; a destructor cannot. Callers
    // that care about errors close() explicitly.
  }
}

void StreamingDedisperser::rethrow_pending_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
}

void StreamingDedisperser::push(ConstView2D<float> samples) {
  DDMC_REQUIRE(samples.rows() == beams() * channels(),
               "sample block rows != beams x plan channels");
  feed_views_.clear();
  for (std::size_t b = 0; b < beams(); ++b) {
    feed_views_.emplace_back(samples.data() + b * channels() * samples.pitch(),
                             channels(), samples.cols(), samples.pitch());
  }
  push(feed_views_);
}

void StreamingDedisperser::push(
    const std::vector<ConstView2D<float>>& beam_samples) {
  // Validate the whole feed before any chunker absorbs a sample: a beam
  // rejected after another had been fed would leave the chunkers out of
  // lockstep for good.
  DDMC_REQUIRE(beam_samples.size() == beams(),
               "feed must cover every beam of the session");
  const std::size_t n = beam_samples[0].cols();
  for (const ConstView2D<float>& beam : beam_samples) {
    DDMC_REQUIRE(beam.rows() == channels(),
                 "sample block rows != plan channels");
    DDMC_REQUIRE(beam.cols() == n,
                 "beams must be fed the same number of samples");
  }
  DDMC_REQUIRE(!closed_, "push into a closed streaming session");
  rethrow_pending_error();
  OverlapChunker& lead = chunkers_[0];
  std::size_t offset = 0;
  while (offset < n) {
    // Zero-copy fast path: dedisperse straight from the caller's blocks
    // whenever they contain the whole current window — the dominant case
    // when a receiver hands over large buffers, and it keeps the
    // memory-bound kernel free of assembly traffic. Any assembled window
    // prefix is, by construction, a copy of the last filled() samples fed,
    // i.e. block columns [offset − filled, offset), so the window starts
    // filled() columns back in the block; skip_chunk() drops the duplicate
    // prefix. The chunkers share filled() and the offset, so the path
    // applies to every beam at once. The borrowed windows are only read
    // before submit() returns (sync: the kernel runs inline; async: the
    // handoff copies them).
    const std::size_t filled = lead.filled();
    const std::size_t window_cols = lead.window_samples();
    if (filled <= offset && n - offset >= window_cols - filled) {
      const std::size_t start = offset - filled;
      windows_.clear();
      for (const ConstView2D<float>& beam : beam_samples) {
        windows_.emplace_back(&beam(0, start), channels(), window_cols,
                              beam.pitch());
      }
      submit(windows_, lead.chunk_out());
      for (OverlapChunker& c : chunkers_) c.skip_chunk();
      offset = start + lead.chunk_out();
      continue;
    }
    const std::size_t absorbed = lead.feed(beam_samples[0], offset);
    for (std::size_t b = 1; b < beams(); ++b) {
      const std::size_t a = chunkers_[b].feed(beam_samples[b], offset);
      DDMC_ENSURE(a == absorbed, "beam chunkers fell out of lockstep");
    }
    offset += absorbed;
    if (lead.ready()) {
      windows_.clear();
      for (const OverlapChunker& c : chunkers_) {
        windows_.push_back(c.chunk_input());
      }
      submit(windows_, lead.chunk_out());
      for (OverlapChunker& c : chunkers_) c.advance();
    }
  }
}

void StreamingDedisperser::consume(SampleRing& ring) {
  const std::size_t rows = beams() * channels();
  DDMC_REQUIRE(ring.channels() == rows,
               "ring rows != beams x plan channels");
  Array2D<float> transfer(rows, std::min<std::size_t>(ring.capacity(), 4096));
  for (;;) {
    const std::size_t n = ring.pop(transfer.view());
    if (n == 0) break;  // closed and drained
    try {
      push(ConstView2D<float>(transfer.cview().data(), rows, n,
                              transfer.pitch()));
    } catch (...) {
      // A dead consumer must never leave producers blocked against the
      // ring's backpressure: poison it so their push() calls abort with
      // the session's failure instead of deadlocking.
      ring.fail("streaming session failed: " +
                resilience::describe(std::current_exception()));
      throw;
    }
  }
}

void StreamingDedisperser::submit(
    const std::vector<ConstView2D<float>>& windows, std::size_t out_samples) {
  Job job;
  job.index = chunkers_[0].chunk_index();
  job.first_sample = chunkers_[0].first_out_sample();
  job.out_samples = out_samples;
  job.in_cols = windows[0].cols();
  job.assembled_at = session_clock_.seconds();

  if (!options_.async) {
    run_job(job, windows);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return !job_pending_; });
  if (error_) std::rethrow_exception(error_);
  for (std::size_t b = 0; b < windows.size(); ++b) {
    for (std::size_t ch = 0; ch < channels(); ++ch) {
      std::memcpy(&job_input_(b * channels() + ch, 0), &windows[b](ch, 0),
                  job.in_cols * sizeof(float));
    }
  }
  job_ = job;
  job_pending_ = true;
  cv_job_.notify_one();
}

void StreamingDedisperser::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_job_.wait(lock, [&] { return job_pending_ || stop_; });
      if (!job_pending_) return;  // stop requested, queue drained
      job = job_;
    }
    job_windows_.clear();
    for (std::size_t b = 0; b < beams(); ++b) {
      job_windows_.emplace_back(&job_input_.cview()(b * channels(), 0),
                                channels(), job.in_cols, job_input_.pitch());
    }
    try {
      run_job(job, job_windows_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_pending_ = false;
      cv_idle_.notify_all();
    }
  }
}

void StreamingDedisperser::run_job(
    const Job& job, const std::vector<ConstView2D<float>>& input) {
  const resilience::StreamPolicy& policy = options_.supervision;
  const bool full = job.out_samples == plan_.out_samples();
  const double data_seconds = static_cast<double>(job.out_samples) /
                              plan_.observation().sampling_rate();

  // Full chunks reuse the session's output buffers (a streaming hot path
  // should not allocate megabytes per chunk); only the final partial
  // flush, whose shape differs, allocates its own.
  BeamOutputs partial_out;
  if (!full) partial_out = BeamOutputs(beams(), plan_.dms(), job.out_samples);
  const BeamOutputs& out = full ? out_full_ : partial_out;

  telemetry::TraceSpan chunk_span("stream.chunk");
  chunk_span.arg("chunk", job.index).arg("out_samples", job.out_samples);

  // Watchdog rung 1 — bounded retry of transient chunk failures. A fresh
  // attempt rewrites the whole output buffer, so a half-written failed
  // attempt never leaks into the emitted chunk. compute time keeps
  // covering the failed attempts: the deadline judges the chunk's real
  // wall cost, which is what the ring feels.
  Stopwatch compute;
  std::size_t chunk_retries = 0;
  engine::SessionTraffic traffic;
  for (;;) {
    try {
      DDMC_FAILPOINT_CTX("stream.chunk", job.index);
      const pipeline::Executor& executor =
          degraded_ ? *degrade_executor_ : *executor_;
      traffic = executor.run(input, out.views, job.out_samples);
      break;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      const bool transient = resilience::classify_supervised(err) ==
                             resilience::ErrorClass::kTransient;
      if (policy.enabled && transient &&
          chunk_retries < policy.max_chunk_retries) {
        ++chunk_retries;
        continue;
      }
      if (chunk_retries > 0) {
        retries_metric_->add(static_cast<double>(chunk_retries));
        chunks_retried_metric_->increment();
      }
      // Rung 2 — skip: only transient failures may be dropped; a config
      // or data error would fail every later chunk the same way, so it
      // latches the session error exactly as an unsupervised run would.
      if (policy.enabled && policy.skip_failed_chunks && transient) {
        skip_chunk_with_gap(job, resilience::describe(err));
        return;
      }
      std::rethrow_exception(err);
    }
  }

  StreamChunk chunk;
  chunk.index = job.index;
  chunk.first_sample = job.first_sample;
  chunk.out_samples = job.out_samples;
  chunk.outputs = out.cviews;
  chunk.output = out.cviews[0];
  if (options_.detect) {
    telemetry::TraceSpan detect_span("sky.detect");
    detect_span.arg("chunk", job.index);
    chunk.candidate = sky::detect_best_beam(out.matrices);
  }
  chunk.timing.compute_seconds = compute.seconds();
  chunk.timing.data_seconds = data_seconds;
  chunk.timing.latency_seconds = session_clock_.seconds() - job.assembled_at;
  if (sink_) {
    telemetry::TraceSpan sink_span("stream.sink");
    sink_span.arg("chunk", job.index);
    sink_(chunk);
  }
  if (chunk_retries > 0) {
    retries_metric_->add(static_cast<double>(chunk_retries));
    chunks_retried_metric_->increment();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  tracker_.record(chunk.timing);
  ++emitted_;
  traffic_.merge(traffic);
  // Rung 3 pressure — the deadline is the real-time-margin criterion per
  // chunk: factor × data seconds of compute budget. An overrun still
  // delivered (late science beats no science) but pushes the session
  // toward the cheaper engine; an on-time chunk resets the streak.
  if (policy.enabled && policy.deadline_factor > 0.0 &&
      chunk.timing.compute_seconds > policy.deadline_factor * data_seconds) {
    overruns_metric_->increment();
    telemetry::Tracer::instance().record_instant(
        "stream.deadline", telemetry::Tracer::now_ns());
    degrade_pressure(lock);
  } else {
    pressure_streak_ = 0;
  }
}

void StreamingDedisperser::skip_chunk_with_gap(const Job& job,
                                               const std::string& reason) {
  const double data_seconds = static_cast<double>(job.out_samples) /
                              plan_.observation().sampling_rate();
  resilience::ChunkGap gap;
  gap.index = job.index;
  gap.first_sample = job.first_sample;
  gap.out_samples = job.out_samples;
  gap.reason = reason;
  chunks_skipped_metric_->increment();
  telemetry::Tracer::instance().record_instant("stream.gap",
                                               telemetry::Tracer::now_ns());
  std::unique_lock<std::mutex> lock(mutex_);
  tracker_.record_gap(data_seconds);
  health_.gaps.push_back(std::move(gap));
  degrade_pressure(lock);
}

void StreamingDedisperser::degrade_pressure(std::unique_lock<std::mutex>&) {
  ++pressure_streak_;
  if (degraded_ || !degrade_executor_ ||
      options_.supervision.degrade_after == 0 ||
      pressure_streak_ < options_.supervision.degrade_after) {
    return;
  }
  // The switch is one flag plus bookkeeping: the target engine was built
  // at construction and the chunker already carries its padding.
  degraded_ = true;
  pressure_streak_ = 0;
  degradations_metric_->increment();
  telemetry::Tracer::instance().record_instant("stream.degrade",
                                               telemetry::Tracer::now_ns());
  health_.degraded = true;
  health_.active_engine = degrade_executor_->engine().id();
}

resilience::StreamHealth StreamingDedisperser::health() const {
  // gaps / engine identity under the session mutex; numeric counters from
  // the registry metrics, so health(), a Prometheus scrape and
  // snapshot_json() report the same numbers.
  resilience::StreamHealth h;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    h = health_;
    h.chunks_emitted = emitted_;
  }
  h.retries = static_cast<std::size_t>(retries_metric_->value());
  h.chunks_retried =
      static_cast<std::size_t>(chunks_retried_metric_->value());
  h.chunks_skipped =
      static_cast<std::size_t>(chunks_skipped_metric_->value());
  h.deadline_overruns = static_cast<std::size_t>(overruns_metric_->value());
  h.degradations = static_cast<std::size_t>(degradations_metric_->value());
  h.gap_data_seconds = tracker_.report().gap_data_seconds;
  return h;
}

engine::SessionTraffic StreamingDedisperser::telemetry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traffic_;
}

void StreamingDedisperser::close() {
  if (!closed_) {
    closed_ = true;
    // The flush may rethrow an earlier failure; the worker must still be
    // stopped and joined before any exception leaves, or a joinable thread
    // would be destroyed.
    std::exception_ptr flush_error;
    try {
      const std::size_t pending = chunkers_[0].pending_out();
      if (pending > 0) {
        windows_.clear();
        for (const OverlapChunker& c : chunkers_) {
          windows_.push_back(c.partial_input());
        }
        submit(windows_, pending);
      }
    } catch (...) {
      flush_error = std::current_exception();
    }
    if (options_.async) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        cv_job_.notify_all();
      }
      if (worker_.joinable()) worker_.join();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_ && flush_error) error_ = flush_error;
  }
  rethrow_pending_error();
}

std::size_t StreamingDedisperser::chunks_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

LatencyReport StreamingDedisperser::latency() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracker_.report();
}

}  // namespace ddmc::stream
