#pragma once
/// \file streaming_dedisperser.hpp
/// \brief The streaming real-time dedispersion session, over one or more
/// beams.
///
/// The batch API (`pipeline::Dedisperser`) needs the whole channels ×
/// in_samples matrix up front; a survey backend has samples *arriving*. A
/// StreamingDedisperser is the session object in between:
///
///   ring (bounded, backpressure)          [optional, consume()]
///     └─ OverlapChunker per beam          assembles overlap-carry windows
///          └─ pipeline::Executor          any streaming-capable engine,
///               │                         beams × DM shards per chunk
///               └─ sink callback          per-beam dms × chunk outputs
///                                         (+ strongest candidate)
///
/// §II: trials and beams are independent, so a multi-beam session is the
/// same session with StreamingOptions::beams > 1 — one chunker per beam fed
/// in lockstep, one executor call per chunk over the whole beams × DM-shards
/// grid, and the same double buffer, watchdog and telemetry for every beam
/// count.
///
/// The engine is selected by registry id (StreamingOptions::engine); a
/// session requires the supports_streaming capability and widens the
/// chunkers' carried overlap by the engine's declared input_padding, so an
/// engine that reads past in_samples (subband) streams real samples, not
/// zero padding.
///
/// Feed raw samples at any granularity with push(); full chunk windows are
/// handed to a dedicated compute thread (double-buffered: the next windows
/// assemble while the previous ones dedisperse) and delivered to the sink
/// in chunk order. close() flushes the final partial chunk, so a session
/// that saw the same samples as a batch run emits, concatenated, the
/// bitwise-identical output matrix for every beam.
///
/// The sink runs on the compute thread (async mode) or the pushing thread
/// (sync mode); it must not call back into the session.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/array2d.hpp"
#include "common/timer.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "pipeline/executor.hpp"
#include "resilience/supervisor.hpp"
#include "sky/detection.hpp"
#include "stream/chunker.hpp"
#include "stream/latency.hpp"
#include "stream/ring_buffer.hpp"
#include "telemetry/metrics.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::stream {

/// One delivered chunk: a dms × out_samples trial matrix per beam plus
/// accounting.
struct StreamChunk {
  std::size_t index = 0;         ///< chunk sequence number
  std::size_t first_sample = 0;  ///< global output sample of column 0
  /// Chunk length: the session's chunk size for full chunks; the flush
  /// chunk covers whatever remained (usually shorter, at most chunk size
  /// + the engine's input padding − 1).
  std::size_t out_samples = 0;
  /// outputs[beam] is that beam's dedispersed matrix; valid only during
  /// the sink call.
  std::span<const ConstView2D<float>> outputs;
  /// outputs[0]: the whole output of a single-beam session.
  ConstView2D<float> output;
  /// Strongest candidate across beams in this chunk
  /// (StreamingOptions::detect); beam is 0 in a single-beam session.
  std::optional<sky::BeamCandidate> candidate;
  ChunkTiming timing;
};

struct StreamingOptions {
  /// Registry id of the engine the session runs; must report the
  /// supports_streaming capability.
  std::string engine = engine::kDefaultEngineId;
  /// Host-execution knobs passed to the engine factory (threads,
  /// SIMD-vs-scalar).
  dedisp::CpuKernelOptions cpu;
  /// Two-stage split of the subband engine (adapted to the plan by gcd).
  dedisp::SubbandConfig subband;
  /// Beams the session dedisperses in lockstep (≥ 1), each through its own
  /// overlap-carry chunker. push(ConstView2D) and consume() then take
  /// beam-major stacked blocks of beams × channels rows.
  std::size_t beams = 1;
  /// Scan each chunk's beams for the strongest candidate and attach it.
  bool detect = false;
  /// Dedisperse on a dedicated compute thread, double-buffered against
  /// assembly; false runs chunks inline on the pushing thread
  /// (deterministic profiling, tests).
  bool async = true;
  /// ≥ 2: each chunk's beams × DM-shards grid runs on this many pool
  /// workers of the session's pipeline::Executor, behind the double
  /// buffer; 0/1 runs one engine call per beam on the computing thread.
  /// Output stays bitwise identical either way. Additionally requires the
  /// engine's supports_sharding capability.
  std::size_t shard_workers = 0;
  /// Supervision of the executor's pool jobs (shard_workers >= 2):
  /// per-shard bounded retry, optionally reacquisition. The default
  /// (one attempt) fails the whole chunk on the first shard error, leaving
  /// recovery to the chunk-level watchdog below; a shard-level retry budget
  /// absorbs transient faults without repeating the chunk's other shards.
  resilience::SupervisionPolicy shard_supervision;
  /// Watchdog ladder on chunk failure / deadline overrun, over the chunk's
  /// whole beams × DM-shards grid: retry transient failures → skip the
  /// chunk (every beam) with gap accounting → degrade to a cheaper
  /// streaming-capable engine. Disabled by default: an unsupervised session
  /// latches the first error. When enabled with a degradation target
  /// available, the chunkers' carried overlap is widened to the larger of
  /// the two engines' input_padding so the fallback streams real samples
  /// too.
  resilience::StreamPolicy supervision;
};

/// Streaming session over StreamingOptions::beams beams.
class StreamingDedisperser {
 public:
  using Sink = std::function<void(const StreamChunk&)>;

  /// \p chunk_plan fixes the instance (observation, DM grid) and the chunk
  /// length via its out_samples; build it with Plan::with_output_samples or
  /// Plan::with_chunk. \p config must validate against it on the selected
  /// engine (engine-native axes; empty = the engine's defaults; a tiled
  /// kernel shape is engine::encode_kernel_config of it).
  StreamingDedisperser(dedisp::Plan chunk_plan, engine::EngineConfig config,
                       Sink sink, StreamingOptions options = {});

  /// Tune-on-first-use: resolve the engine config from \p cache before the
  /// session starts — an exact hit or a nearest-neighbor transfer costs no
  /// measurements (the startup path a real-time backend wants), a cold
  /// cache runs the guided search once on the chunk plan and stores the
  /// winner for every later session. When \p tuning.engines is empty only
  /// \p options.engine is tuned; listing several ids races them by
  /// measured wall seconds and the session *adopts the winner* before it
  /// starts: the streaming-capability gate and the chunkers' carried
  /// overlap are taken from the winning engine, so a winner with a larger
  /// input_padding streams real samples, not zero padding. The engine
  /// options of \p tuning are overridden by \p options (cpu and subband)
  /// so the tuned signature matches what the session will run; inspect
  /// tuning_outcome() for what happened.
  StreamingDedisperser(dedisp::Plan chunk_plan, tuner::TuningCache& cache,
                       Sink sink, StreamingOptions options = {},
                       tuner::GuidedTuningOptions tuning = {});

  ~StreamingDedisperser();

  StreamingDedisperser(const StreamingDedisperser&) = delete;
  StreamingDedisperser& operator=(const StreamingDedisperser&) = delete;

  const dedisp::Plan& chunk_plan() const { return plan_; }
  std::size_t chunk_samples() const { return plan_.out_samples(); }
  /// Channels of one beam.
  std::size_t channels() const { return plan_.channels(); }
  std::size_t beams() const { return chunkers_.size(); }

  /// Feed samples.cols() samples of every beam at once: a beam-major
  /// stacked block of beams() × channels() rows (rows [b·channels,
  /// (b+1)·channels) are beam b), any n ≥ 0 columns — down to one sample.
  /// Completed chunks are dispatched as a side effect; blocks only while
  /// both window buffers are full (compute backpressure). Rethrows a
  /// sink/kernel failure from the compute thread.
  void push(ConstView2D<float> samples);

  /// Feed beams held in separate buffers: beam_samples.size() == beams(),
  /// each channels() × n with one shared n. The whole feed is validated
  /// before any beam absorbs a sample, so a rejected feed leaves the
  /// session intact.
  void push(const std::vector<ConstView2D<float>>& beam_samples);

  /// Drain \p ring (beams() × channels() rows, beam-major) until it is
  /// closed and empty, push()ing everything.
  void consume(SampleRing& ring);

  /// Flush the final partial chunk (if any), stop the compute thread and
  /// deliver everything outstanding. Idempotent; called by the destructor.
  /// Rethrows the first sink/kernel failure, if any.
  void close();

  /// Chunks delivered to the sink so far.
  std::size_t chunks_emitted() const;

  /// Latency/throughput statistics of the chunks delivered so far
  /// (including gap accounting for chunks the watchdog skipped).
  LatencyReport latency() const;

  /// Snapshot of the supervised session's health: retries, skips with
  /// their gaps, deadline overruns, and the active (possibly degraded)
  /// engine. Meaningful counters require StreamingOptions::supervision
  /// .enabled; active_engine is maintained either way. The numeric fields
  /// are assembled from this session's registry counters (one source of
  /// truth with the exporters); the gaps list and the engine identity live
  /// on the session.
  resilience::StreamHealth health() const;

  /// Whole-session traffic aggregate: EngineRun counters and busy seconds
  /// over every engine call of every chunk (one per beam, or per beam and
  /// DM shard when StreamingOptions::shard_workers shards the chunks).
  engine::SessionTraffic telemetry() const;

  /// The session label this session's registry metrics carry.
  const std::string& session_label() const { return tracker_.session(); }

  /// How the cache-constructed session got its config (empty when the
  /// explicit-config constructor was used).
  const std::optional<tuner::GuidedTuningOutcome>& tuning_outcome() const {
    return tuning_outcome_;
  }

 private:
  /// Plan + resolved tuning + the options the session will actually run
  /// (the tuning race's winning engine adopted into options.engine), so the
  /// cache lookup runs exactly once before the delegated constructor sizes
  /// the chunkers and starts the compute thread.
  struct TunedPlan {
    dedisp::Plan plan;
    StreamingOptions options;
    tuner::GuidedTuningOutcome outcome;
  };
  static TunedPlan resolve_tuning(dedisp::Plan chunk_plan,
                                  tuner::TuningCache& cache,
                                  StreamingOptions options,
                                  tuner::GuidedTuningOptions tuning);
  StreamingDedisperser(TunedPlan tuned, Sink sink);

  struct Job {
    std::size_t index = 0;
    std::size_t first_sample = 0;
    std::size_t out_samples = 0;
    /// Input columns of this job's windows. Full chunks carry the whole
    /// window (out + overlap incl. engine padding); the final partial
    /// flush carries only what was actually fed — the engine zero-pads
    /// the rest, exactly as a batch run over the same samples would.
    std::size_t in_cols = 0;
    double assembled_at = 0.0;  ///< session-clock time the window completed
  };

  /// Per-beam output matrices of one chunk length, with the view lists the
  /// executor writes and the sink reads.
  struct BeamOutputs {
    BeamOutputs() = default;
    BeamOutputs(std::size_t beams, std::size_t dms, std::size_t out_samples);
    std::vector<Array2D<float>> matrices;
    std::vector<View2D<float>> views;
    std::vector<ConstView2D<float>> cviews;
  };

  /// \p windows holds one window per beam.
  void submit(const std::vector<ConstView2D<float>>& windows,
              std::size_t out_samples);
  void run_job(const Job& job, const std::vector<ConstView2D<float>>& input);
  /// Watchdog rung 2: account the never-emitted chunk as a gap and apply
  /// degradation pressure. Called from run_job with the terminal failure.
  void skip_chunk_with_gap(const Job& job, const std::string& reason);
  /// Apply one unit of degradation pressure (a skip or a deadline
  /// overrun); a clean chunk resets the streak. Switches to the prebuilt
  /// degradation target when the streak reaches the policy threshold.
  void degrade_pressure(std::unique_lock<std::mutex>& lock);
  void worker_loop();
  void rethrow_pending_error();

  dedisp::Plan plan_;
  Sink sink_;
  StreamingOptions options_;
  /// Runs every chunk's beams × DM-shards grid, the final partial one
  /// included.
  std::unique_ptr<const pipeline::Executor> executor_;
  /// Prebuilt degradation target (supervision enabled and a capable,
  /// cheaper engine exists), run inline; building it up front means the
  /// switch is a pointer swap on the compute path, never a mid-session
  /// factory call that could itself fail.
  std::unique_ptr<const pipeline::Executor> degrade_executor_;
  std::optional<tuner::GuidedTuningOutcome> tuning_outcome_;
  /// One per beam, fed in lockstep: they share filled() and chunk index.
  std::vector<OverlapChunker> chunkers_;
  /// The current windows (one per beam) handed to submit() by the pushing
  /// thread; reused so dispatch allocates nothing.
  std::vector<ConstView2D<float>> windows_;
  /// Beam views of a stacked push() block; reused likewise.
  std::vector<ConstView2D<float>> feed_views_;
  Stopwatch session_clock_;
  LatencyTracker tracker_;  // guarded by mutex_ in async mode

  // Double buffer (async only): the chunkers assemble into their own
  // windows while the compute thread reads job_input_, the beams' windows
  // stacked beam-major; job_windows_ are its per-beam views (compute
  // thread only).
  Array2D<float> job_input_;
  std::vector<ConstView2D<float>> job_windows_;
  /// Outputs reused by every full chunk (one job runs at a time); the
  /// sink's views into them are valid only during the sink call.
  BeamOutputs out_full_;
  Job job_;
  bool job_pending_ = false;
  bool stop_ = false;
  bool closed_ = false;
  std::exception_ptr error_;
  std::size_t emitted_ = 0;
  /// Only the gaps list, active_engine and degraded flag are kept here
  /// (guarded by mutex_); every numeric counter lives in the session's
  /// registry metrics below and is folded back in by health().
  resilience::StreamHealth health_;
  /// Session-labeled supervision counters — the numeric source of truth
  /// behind health() and the exporters.
  std::shared_ptr<telemetry::Counter> retries_metric_;
  std::shared_ptr<telemetry::Counter> chunks_retried_metric_;
  std::shared_ptr<telemetry::Counter> chunks_skipped_metric_;
  std::shared_ptr<telemetry::Counter> overruns_metric_;
  std::shared_ptr<telemetry::Counter> degradations_metric_;
  engine::SessionTraffic traffic_;      // guarded by mutex_
  std::size_t pressure_streak_ = 0;     // guarded by mutex_
  /// Set once by the compute path when the watchdog switches engines; read
  /// by the compute path only (health_.degraded mirrors it for health()).
  bool degraded_ = false;
  mutable std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::thread worker_;
};

}  // namespace ddmc::stream
