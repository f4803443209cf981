/// perfbench — end-to-end benchmark of real-time dedispersion.
///
///   perfbench --workload apertif_batch|apertif_stream|lofar_paced
///             --seed N --seconds S --trace 0|1
///             [--size full|smoke] [--out-dir DIR]
///             [--commit C] [--source-digest D]
///
/// Each workload drives the library through its public entry points only:
/// load generation (seeded, before timing) → cold set-up (plan, tuning
/// race, executor/session), repeated and reported as a median → a timed
/// phase of --seconds → the correctness gate (sampled trials bitwise
/// against dedisp::reference, pulse recall). With --trace 0 the last
/// stdout line carries the end-to-end metrics; with --trace 1 the timed
/// phase is split into an untraced and a traced half and the line carries
/// the per-layer metrics. See README.md for definitions.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "loadgen.hpp"
#include "pipeline/dedisperser.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "trace.hpp"
#include "tuner/tuning_cache.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using ddmc::Array2D;
using ddmc::ConstView2D;
using ddmc::dedisp::Plan;

/// The batch workload's tuning race: exact engines only, so every output
/// stays bitwise comparable with dedisp::reference. The stream sessions
/// tune their own engine (cpu_tiled, also exact) without a race: on LOFAR
/// chunks the race is a near-tie whose winner flips between cold runs,
/// and the two winners stream at margins 1.7x apart.
const std::vector<std::string> kRace = {"cpu_tiled", "cpu_baseline"};

/// Engine threads of the cold race's measurements. The executors run
/// single-threaded shard calls whatever this is; three threads leave one
/// core to the caller and keep a cold race short.
constexpr std::size_t kTuneThreads = 3;

// ------------------------------------------------------------- workloads --

struct Sizes {
  std::size_t dms = 0;
  std::size_t out = 0;     ///< block (batch) or chunk (stream) samples
  std::size_t pool = 0;    ///< blocks (batch) or chunks per stream period
  std::size_t workers = 0; ///< shard workers
  std::size_t setups = 0;  ///< cold set-ups per run (median reported)
  std::size_t ring = 0;    ///< ring capacity [samples]
  std::size_t push_min = 0, push_max = 0;  ///< ragged push sizes [samples]
  PulseShape pulse;
};

struct WorkloadSpec {
  const char* name;
  bool apertif;
  bool stream;
  bool paced;
  Sizes full;
  Sizes smoke;
};

// Sizing: a cold search costs about as much as its plan is big, so block
// and chunk plans stay small enough that three cold set-ups fit a run.
// apertif_stream runs but is not gated in BENCHMARK.json: it saturates
// every core, and host CPU steal made its tail too unsteady (README.md).
// apertif_batch shards over 2 workers, not 3: each block waits for its
// slowest shard, and with 3 shards plus the caller on 4 vCPUs its spread
// across runs was twice that of 2 workers under the same host load.
const WorkloadSpec kWorkloads[] = {
    {"apertif_batch", true, false, false,
     {256, 500, 12, 2, 3, 0, 0, 0, {0.5, 2}},
     {32, 500, 2, 3, 1, 0, 0, 0, {0.5, 2}}},
    {"apertif_stream", true, true, false,
     {128, 2000, 10, 2, 3, 4000, 100, 800, {0.5, 2}},
     {16, 500, 3, 2, 1, 2000, 50, 300, {0.5, 2}}},
    {"lofar_paced", false, true, true,
     {64, 20000, 10, 2, 3, 40000, 200, 1000, {3.0, 2}},
     {16, 5000, 3, 2, 1, 20000, 200, 1000, {3.0, 2}}},
};

/// Everything one timed phase measured. Results are blocks (batch) or
/// chunks (stream), in delivery order.
struct Phase {
  double wall_s = 0.0;
  double sky_s = 0.0;            ///< beam-seconds of delivered results
  /// One segment per set-up: the end of its results, in delivery order.
  std::vector<std::size_t> segments;
  std::vector<double> latency;   ///< per result
  std::vector<double> compute;   ///< per result: engine call / chunk compute
  std::vector<double> sky;       ///< per result: beam-seconds
  /// Per result: wall time since the previous result of its segment, or
  /// since the segment started. Summed over a run of results it is their
  /// wall time without the gaps between segments.
  std::vector<double> interval;
  /// Per result: process CPU seconds (all threads) over the same interval.
  std::vector<double> cpu;
  std::vector<double> queue;     ///< per chunk: latency − compute
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t pulses = 0;
  std::size_t hits = 0;
  std::size_t partial_chunks = 0;  ///< flushed partial chunks (unchecked)
  double detect_s = 0.0;
  double ring_push_s = 0.0;
  std::size_t ring_depth_max = 0;
  std::vector<double> lag;  ///< paced pushes: start − due
  std::size_t gap_chunks = 0;
  double stream_busy_s = 0.0;
  ddmc::engine::SessionTraffic traffic;  ///< engine work of this phase

  void add_result(double latency_s, double compute_s, double sky_seconds,
                  double interval_s, double cpu_s) {
    latency.push_back(latency_s);
    compute.push_back(compute_s);
    sky.push_back(sky_seconds);
    interval.push_back(interval_s);
    cpu.push_back(cpu_s);
    sky_s += sky_seconds;
  }
  void end_segment() { segments.push_back(sky.size()); }
};

struct SetupRecord {
  double seconds = 0.0;      ///< wall
  double cpu_seconds = 0.0;  ///< process CPU, all threads
  double tune_s = 0.0;
  ddmc::tuner::GuidedTuningOutcome outcome;
};

/// A run makes several cold set-ups and keeps every one: the timed phase
/// is spread evenly over them, so its figures average over independent
/// tunings and executor instances instead of resting on one draw.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One cold set-up, kept for run().
  virtual SetupRecord setup(Tracer& tracer) = 0;
  /// One timed phase of \p seconds over the kept set-ups.
  virtual Phase run(double seconds, Tracer& tracer) = 0;
};

/// CPU seconds of the whole process, all threads. On a paravirtualized
/// guest, time the host steals from a vCPU is not counted, so CPU-time
/// figures do not follow co-tenants' load the way wall-time figures do.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

ddmc::sky::Observation observation_of(const WorkloadSpec& spec) {
  return spec.apertif ? ddmc::sky::apertif() : ddmc::sky::lofar();
}

ddmc::engine::SessionTraffic minus(ddmc::engine::SessionTraffic a,
                                   const ddmc::engine::SessionTraffic& b) {
  a.runs -= b.runs;
  a.engine_seconds -= b.engine_seconds;
  a.flop -= b.flop;
  a.bytes -= b.bytes;
  return a;
}

/// apertif_batch: closed loop of whole blocks through pipeline::Dedisperser
/// with DM-sharded execution; the stream layer is bypassed.
class BatchWorkload final : public Workload {
 public:
  BatchWorkload(const WorkloadSpec& spec, const Sizes& sizes,
                std::uint64_t seed)
      : obs_(observation_of(spec)),
        sizes_(sizes),
        pool_(make_block_pool(
            Plan::with_output_samples(obs_, sizes.dms, sizes.out), sizes.pool,
            sizes.pulse, seed)) {}

  SetupRecord setup(Tracer& tracer) override {
    Scope span(tracer, "setup");
    SetupRecord rec;
    const double start = now_s();
    ddmc::tuner::TuningCache cache;  // cold
    auto dd = ddmc::pipeline::Dedisperser::with_output_samples(
        obs_, sizes_.dms, sizes_.out, kRace.front());
    ddmc::dedisp::CpuKernelOptions cpu;
    cpu.threads = kTuneThreads;
    dd.set_cpu_options(cpu);
    dd.set_execution(ddmc::pipeline::Execution::kDmSharded, sizes_.workers);
    ddmc::tuner::GuidedTuningOptions tuning;
    tuning.engines = kRace;
    {
      Scope tune(tracer, "tuner.tune", span.id());
      const double t0 = now_s();
      rec.outcome = dd.tune_cached(cache, tuning);
      rec.tune_s = now_s() - t0;
    }
    {
      // The sharded executor is built on first use: ready means one call
      // has gone through it.
      Scope warm(tracer, "pipeline.warmup", span.id());
      dd.dedisperse(pool_.inputs.front().cview());
    }
    rec.seconds = now_s() - start;
    executors_.push_back(std::move(dd));
    return rec;
  }

  Phase run(double seconds, Tracer& tracer) override {
    Phase ph;
    const ddmc::engine::SessionTraffic before = traffic();
    const double per_block = static_cast<double>(sizes_.out) /
                             obs_.sampling_rate();
    // One contiguous segment per executor keeps each pool's threads hot.
    std::size_t i = 0;
    for (ddmc::pipeline::Dedisperser& dd : executors_) {
      const double start = now_s();
      const double until =
          start + seconds / static_cast<double>(executors_.size());
      double previous = start;
      double previous_cpu = process_cpu_s();
      for (; now_s() < until; ++i) {
        const std::size_t b = i % pool_.inputs.size();
        Scope block(tracer, "block", 0, i);
        const double t0 = now_s();
        Array2D<float> out;
        {
          Scope s(tracer, "pipeline.dedisperse", block.id(), i);
          out = dd.dedisperse(pool_.inputs[b].cview());
        }
        const double t1 = now_s();
        ddmc::sky::DetectionResult det;
        {
          Scope s(tracer, "sky.detect", block.id(), i);
          det = ddmc::sky::detect_best_dm(out.cview());
        }
        const double t2 = now_s();
        bool exact = false;
        {
          Scope s(tracer, "gate.check", block.id(), i);
          exact = pool_.expected[b].matches(out.cview(), 0);
        }
        ++ph.attempted;
        ++ph.pulses;
        if (!exact) ++ph.failed;
        if (det.best_trial == pool_.pulses[b].trial) ++ph.hits;
        const double done = now_s();
        const double done_cpu = process_cpu_s();
        ph.add_result(t2 - t0, t1 - t0, per_block, done - previous,
                      done_cpu - previous_cpu);
        ph.detect_s += t2 - t1;
        previous = done;
        previous_cpu = done_cpu;
      }
      ph.wall_s += now_s() - start;
      ph.end_segment();
    }
    ph.traffic = minus(traffic(), before);
    return ph;
  }

 private:
  ddmc::engine::SessionTraffic traffic() const {
    ddmc::engine::SessionTraffic total;
    for (const auto& dd : executors_) total.merge(dd.telemetry());
    return total;
  }

  ddmc::sky::Observation obs_;
  Sizes sizes_;
  BlockPool pool_;
  std::vector<ddmc::pipeline::Dedisperser> executors_;
};

/// apertif_stream / lofar_paced: a producer thread pushes ragged blocks of
/// a replayed periodic stream into a SampleRing; a consumer thread drains
/// it through an async StreamingDedisperser whose sink runs detection.
/// Closed loop (backpressure throttles the producer) or open loop (pushes
/// on the telescope's 1× schedule).
class StreamWorkload final : public Workload {
 public:
  StreamWorkload(const WorkloadSpec& spec, const Sizes& sizes,
                 std::uint64_t seed)
      : obs_(observation_of(spec)),
        sizes_(sizes),
        paced_(spec.paced),
        seed_(seed),
        stream_(make_periodic_stream(
            Plan::with_output_samples(obs_, sizes.dms, sizes.out), sizes.pool,
            sizes.pulse, seed)) {}

  SetupRecord setup(Tracer& tracer) override {
    Scope span(tracer, "setup");
    SetupRecord rec;
    const double start = now_s();
    ddmc::tuner::TuningCache cache;  // cold
    {
      // The TuningCache constructor runs the cold search before the session
      // starts, so this span is the tuning plus session construction.
      Scope s(tracer, "stream.session_build", span.id());
      const double t0 = now_s();
      sessions_.push_back(std::make_unique<ddmc::stream::StreamingDedisperser>(
          Plan::with_output_samples(obs_, sizes_.dms, sizes_.out), cache,
          sink(), options()));
      rec.tune_s = now_s() - t0;
    }
    rec.outcome = *sessions_.back()->tuning_outcome();
    outcomes_.push_back(rec.outcome);
    rec.seconds = now_s() - start;
    return rec;
  }

  Phase run(double seconds, Tracer& tracer) override {
    Phase ph;
    phase_ = &ph;
    tracer_ = &tracer;
    for (std::size_t r = 0; r < outcomes_.size(); ++r) {
      if (!sessions_[r]) {
        // A session serves one stream; later phases get a fresh one with
        // the configuration its set-up adopted.
        ddmc::stream::StreamingOptions opts = options();
        opts.engine = outcomes_[r].engine_id;
        sessions_[r] = std::make_unique<ddmc::stream::StreamingDedisperser>(
            Plan::with_output_samples(obs_, sizes_.dms, sizes_.out),
            outcomes_[r].config, sink(), opts);
      }
      segment(*sessions_[r], seconds / static_cast<double>(outcomes_.size()),
              ph, tracer);
      sessions_[r].reset();
    }
    phase_ = nullptr;
    return ph;
  }

 private:
  /// One stream of \p seconds through \p session.
  void segment(ddmc::stream::StreamingDedisperser& session, double seconds,
               Phase& ph, Tracer& tracer) {
    ddmc::stream::SampleRing ring(obs_.channels(), sizes_.ring);
    std::exception_ptr producer_error;
    std::exception_ptr consumer_error;
    start_ = now_s();
    last_done_ = start_;
    last_cpu_ = process_cpu_s();
    std::thread consumer([&] {
      try {
        Scope s(tracer, "stream.consume");
        consume_span_ = s.id();
        session.consume(ring);
      } catch (...) {
        consumer_error = std::current_exception();
      }
    });
    std::thread producer([&] {
      try {
        produce(ring, seconds, ph, tracer);
      } catch (...) {
        producer_error = std::current_exception();
      }
      try {
        ring.close();
      } catch (...) {
        // A ring the consumer poisoned is already closed for good.
      }
    });
    producer.join();
    consumer.join();
    {
      Scope s(tracer, "stream.close");
      session.close();
    }
    ph.wall_s += now_s() - start_;
    if (producer_error) std::rethrow_exception(producer_error);
    if (consumer_error) std::rethrow_exception(consumer_error);

    const ddmc::stream::LatencyReport report = session.latency();
    ph.stream_busy_s += report.compute_seconds;
    ph.gap_chunks += report.gap_chunks;
    ph.attempted += report.gap_chunks;
    ph.failed += report.gap_chunks;
    ph.traffic.merge(session.telemetry());
    ph.end_segment();
  }

  ddmc::stream::StreamingOptions options() const {
    ddmc::stream::StreamingOptions opts;
    opts.async = true;
    opts.cpu.threads = kTuneThreads;
    opts.shard_workers = sizes_.workers;
    return opts;
  }

  ddmc::stream::StreamingDedisperser::Sink sink() {
    return [this](const ddmc::stream::StreamChunk& c) { on_chunk(c); };
  }

  std::size_t overlap() const { return stream_.overlap; }

  void produce(ddmc::stream::SampleRing& ring, double seconds, Phase& ph,
               Tracer& tracer) {
    std::mt19937_64 rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
    std::uniform_int_distribution<std::size_t> size(sizes_.push_min,
                                                    sizes_.push_max);
    const std::size_t cols = stream_.period.cols();
    const std::size_t chunk = sizes_.out;
    const double rate = obs_.sampling_rate();
    // The stream ends right after a full chunk window, so no partial chunk
    // is flushed. Paced: the length is fixed by --seconds of sky. Closed:
    // it is fixed when --seconds of wall time have passed.
    const auto whole = [&](std::size_t samples) {
      const std::size_t over = samples > overlap() ? samples - overlap() : 1;
      return ((over + chunk - 1) / chunk) * chunk + overlap();
    };
    std::size_t total = SIZE_MAX;
    if (paced_) {
      const auto sky = static_cast<std::size_t>(seconds * rate);
      total = std::max(chunk, (sky > overlap() ? sky - overlap() : 0) /
                                  chunk * chunk) +
              overlap();
    }
    std::size_t pushed = 0;
    for (std::size_t n_push = 0; pushed < total; ++n_push) {
      if (!paced_ && total == SIZE_MAX && now_s() - start_ >= seconds) {
        total = whole(pushed);
        if (pushed >= total) break;
      }
      const std::size_t at = pushed % cols;
      const std::size_t n = std::min({size(rng), total - pushed, cols - at});
      if (paced_) {
        const double due = start_ + static_cast<double>(pushed + n) / rate;
        sleep_until_s(due);
        ph.lag.push_back(now_s() - due);
      }
      const double t0 = now_s();
      {
        Scope s(tracer, "loadgen.push", 0, n_push);
        ring.push(ConstView2D<float>(&stream_.period.cview()(0, at),
                                     stream_.period.rows(), n,
                                     stream_.period.pitch()));
      }
      ph.ring_push_s += now_s() - t0;
      ph.ring_depth_max = std::max(ph.ring_depth_max, ring.size());
      pushed += n;
    }
  }

  /// Runs on the session's compute thread.
  void on_chunk(const ddmc::stream::StreamChunk& c) {
    Phase& ph = *phase_;
    Scope sink_span(*tracer_, "stream.sink", consume_span_, c.index);
    if (c.out_samples != sizes_.out) {
      ++ph.partial_chunks;
      return;
    }
    const double t0 = now_s();
    ddmc::sky::DetectionResult det;
    {
      Scope s(*tracer_, "sky.detect", sink_span.id(), c.index);
      det = ddmc::sky::detect_best_dm(c.output);
    }
    const double done = now_s();
    const std::size_t j = c.index % stream_.chunks();
    bool exact = false;
    {
      Scope s(*tracer_, "gate.check", sink_span.id(), c.index);
      exact = stream_.expected.matches(c.output, j * sizes_.out,
                                       stream_.checked[j]);
    }
    // Paced: from when the chunk's last input sample was due. Closed:
    // the session's window-assembled → ready latency plus detection.
    const double latency =
        paced_ ? done - (start_ + static_cast<double>(c.first_sample +
                                                      sizes_.out + overlap()) /
                                      obs_.sampling_rate())
               : c.timing.latency_seconds + (done - t0);
    ++ph.attempted;
    ++ph.pulses;
    if (!exact) ++ph.failed;
    if (det.best_trial == stream_.pulses[j].trial) ++ph.hits;
    const double done_cpu = process_cpu_s();
    ph.add_result(latency, c.timing.compute_seconds, c.timing.data_seconds,
                  done - last_done_, done_cpu - last_cpu_);
    ph.queue.push_back(latency - c.timing.compute_seconds);
    ph.detect_s += done - t0;
    last_done_ = done;
    last_cpu_ = done_cpu;
  }

  ddmc::sky::Observation obs_;
  Sizes sizes_;
  bool paced_;
  std::uint64_t seed_;
  PeriodicStream stream_;
  std::vector<ddmc::tuner::GuidedTuningOutcome> outcomes_;
  // Phase state shared with the sink; set before a segment's threads start.
  Phase* phase_ = nullptr;
  Tracer* tracer_ = nullptr;
  double start_ = 0.0;
  double last_done_ = 0.0;  ///< the sink's previous delivery
  double last_cpu_ = 0.0;   ///< process_cpu_s() at that delivery
  std::atomic<std::uint64_t> consume_span_{0};
  /// One per set-up; emptied once its stream has been run.
  std::vector<std::unique_ptr<ddmc::stream::StreamingDedisperser>> sessions_;
};

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : ddmc::percentile(v, 50.0);
}

/// The highest of a fixed ladder of percentiles with at least ten of \p n
/// samples beyond it (nearest rank), or the median when there are too few.
double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50.0;
}

struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  bool pooled = true;  ///< false: median of per-window tails
};

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  t.percentile = tail_percentile(v.size());
  t.value = v.empty() ? 0.0 : ddmc::percentile(v, t.percentile);
  return t;
}

/// Spin every core for \p seconds. On virtualized hosts, cores that sat
/// idle through single-threaded load generation can run the first second
/// of multi-threaded work at about half speed; spinning first keeps that
/// ramp out of the first cold set-up.
void warm_cores(double seconds) {
  std::vector<std::thread> spinners;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < std::min(cores, 4u); ++c) {
    spinners.emplace_back([seconds] {
      const double until = now_s() + seconds;
      while (now_s() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

/// Split \p n results into contiguous windows of near-equal size: as many
/// as hold at least \p min_size results each, at most \p max_windows, at
/// least one. Returns the window boundaries [0, …, n].
std::vector<std::size_t> windows(std::size_t n, std::size_t min_size,
                                 std::size_t max_windows) {
  const std::size_t k =
      std::clamp<std::size_t>(n / min_size, 1, max_windows);
  std::vector<std::size_t> bounds;
  for (std::size_t w = 0; w <= k; ++w) bounds.push_back(w * n / k);
  return bounds;
}

/// latency_tail_s. Host contention comes in bursts, so when the results
/// fill at least two windows of 100 the tail is the median of the windows'
/// own tails at the highest percentile every window supports, and a burst
/// that hits a few windows does not move it. Fewer results are pooled.
Tail latency_tail(const Phase& ph) {
  const std::vector<std::size_t> bounds =
      windows(ph.latency.size(), 100, 10);
  if (bounds.size() < 3) return tail_of(ph.latency);
  Tail t;
  t.pooled = false;
  t.percentile = tail_percentile(ph.latency.size() / (bounds.size() - 1));
  std::vector<double> tails;
  for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
    tails.push_back(ddmc::percentile(
        std::vector<double>(ph.latency.begin() + bounds[w],
                            ph.latency.begin() + bounds[w + 1]),
        t.percentile));
  }
  t.value = median(tails);
  t.samples = ph.latency.size();
  return t;
}

/// Beam-seconds per wall second of results [begin, end).
double sky_per_wall(const Phase& ph, std::size_t begin, std::size_t end) {
  double sky = 0.0;
  double wall = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sky += ph.sky[i];
    wall += ph.interval[i];
  }
  return wall > 0.0 ? sky / wall : 0.0;
}

/// Process CPU seconds per beam-second of results [begin, end).
double cpu_per_sky(const Phase& ph, std::size_t begin, std::size_t end) {
  double sky = 0.0;
  double cpu = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sky += ph.sky[i];
    cpu += ph.cpu[i];
  }
  return sky > 0.0 ? cpu / sky : 0.0;
}

/// The median of \p ratio(begin, end) over up to 20 windows of at least 10
/// consecutive results, so bursts of contention that hit a few windows do
/// not move it. Used for rt_factor (sky_per_wall) and cores_per_beam
/// (cpu_per_sky).
template <typename F>
double window_median(const Phase& ph, F ratio) {
  const std::vector<std::size_t> bounds = windows(ph.sky.size(), 10, 20);
  std::vector<double> values;
  for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
    values.push_back(ratio(ph, bounds[w], bounds[w + 1]));
  }
  return median(values);
}

/// rt_margin: the median over results [begin, end) of beam-seconds per
/// second of compute.
double rt_margin(const Phase& ph, std::size_t begin, std::size_t end) {
  std::vector<double> values;
  for (std::size_t i = begin; i < end; ++i) {
    if (ph.compute[i] > 0.0) values.push_back(ph.sky[i] / ph.compute[i]);
  }
  return median(values);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- output --

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    obj_.set_raw(name, ddmc::json::Object()
                           .set("value", value)
                           .set("unit", unit)
                           .dump());
  }
  std::string dump() const { return obj_.dump(); }

 private:
  ddmc::json::Object obj_;
};

/// The gated metrics. Wall-time figures (rt_factor, rt_margin, latencies)
/// go to the detail line instead: on a shared VM the host's CPU steal
/// moved them by up to 2x between runs of the same code (README.md).
void end_to_end(Metrics& m, const Phase& ph, double setup_s) {
  m.add("setup_s", setup_s, "s");
  m.add("cores_per_beam", window_median(ph, cpu_per_sky), "cpu-s/sky-s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ok_frac",
        1.0 - static_cast<double>(ph.failed) /
                  static_cast<double>(std::max<std::size_t>(1, ph.attempted)),
        "ratio");
  m.add("recall",
        static_cast<double>(ph.hits) /
            static_cast<double>(std::max<std::size_t>(1, ph.pulses)),
        "ratio");
}

void per_layer(Metrics& m, const Phase& ph, const Phase& untraced,
               const std::vector<SetupRecord>& setups, std::size_t workers,
               bool stream) {
  std::vector<double> tune_s, evaluated;
  for (const SetupRecord& r : setups) {
    tune_s.push_back(r.tune_s);
    evaluated.push_back(static_cast<double>(r.outcome.configs_evaluated));
  }
  const ddmc::engine::SessionTraffic& t = ph.traffic;
  const double busy = t.engine_seconds;
  m.add("tuner.tune_s", median(tune_s), "s");
  m.add("tuner.configs_evaluated", median(evaluated), "count");
  m.add("tuner.winner_gflops", setups.back().outcome.gflops, "GFLOP/s");
  m.add("engine.runs", static_cast<double>(t.runs), "count");
  m.add("engine.busy_s", busy, "s");
  m.add("engine.gflops", busy > 0.0 ? t.flop / busy / 1e9 : 0.0, "GFLOP/s");
  m.add("engine.gbps", busy > 0.0 ? t.bytes / busy / 1e9 : 0.0, "GB/s");
  m.add("engine.flop_per_byte", t.bytes > 0.0 ? t.flop / t.bytes : 0.0,
        "FLOP/B");
  m.add("pipeline.busy_frac",
        busy / (ph.wall_s * static_cast<double>(workers)), "ratio");
  m.add("stream.ring_push_s", ph.ring_push_s, "s");
  m.add("stream.ring_depth_max", static_cast<double>(ph.ring_depth_max),
        "samples");
  m.add("stream.busy_s", ph.stream_busy_s, "s");
  m.add("stream.compute_p50_s", stream ? median(ph.compute) : 0.0, "s");
  m.add("stream.queue_p50_s", stream ? median(ph.queue) : 0.0, "s");
  m.add("stream.chunks", stream ? static_cast<double>(ph.attempted) : 0.0,
        "count");
  m.add("stream.gap_chunks", static_cast<double>(ph.gap_chunks), "count");
  m.add("sky.detect_s", ph.detect_s, "s");
  m.add("loadgen.lag_tail_s", tail_of(ph.lag).value, "s");
  m.add("trace.overhead_frac",
        window_median(ph, cpu_per_sky) / window_median(untraced, cpu_per_sky) -
            1.0,
        "ratio");
}

std::string self_time_json(const Tracer& tracer) {
  ddmc::json::Array arr;
  for (const SelfTime& t : tracer.self_times()) {
    arr.add(ddmc::json::Object()
                .set("name", t.name)
                .set("count", t.count)
                .set("total_s", t.total_s)
                .set("self_s", t.self_s));
  }
  return arr.dump();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--size must be full or smoke");
      }
      a.smoke = value == "smoke";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Sizes& sizes = args.smoke ? spec->smoke : spec->full;

  // Load generation: excluded from every metric except peak RSS.
  std::unique_ptr<Workload> workload;
  if (spec->stream) {
    workload = std::make_unique<StreamWorkload>(*spec, sizes, args.seed);
  } else {
    workload = std::make_unique<BatchWorkload>(*spec, sizes, args.seed);
  }

  warm_cores(args.smoke ? 0.1 : 1.5);
  Tracer tracer;
  tracer.enable(args.trace);
  // setup_s counts CPU seconds, like cores_per_beam and for the same
  // reason: the host's load moved the wall time of a set-up by up to 2x.
  std::vector<SetupRecord> setups;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  for (std::size_t r = 0; r < sizes.setups; ++r) {
    const double cpu0 = process_cpu_s();
    setups.push_back(workload->setup(tracer));
    setups.back().cpu_seconds = process_cpu_s() - cpu0;
    setup_cpu_s.push_back(setups.back().cpu_seconds);
    setup_wall_s.push_back(setups.back().seconds);
  }

  Metrics metrics;
  Phase measured;
  Phase untraced;
  if (args.trace) {
    tracer.enable(false);
    untraced = workload->run(args.seconds / 2, tracer);
    tracer.enable(true);
    measured = workload->run(args.seconds / 2, tracer);
    tracer.enable(false);
    per_layer(metrics, measured, untraced, setups, sizes.workers,
              spec->stream);
  } else {
    measured = workload->run(args.seconds, tracer);
    end_to_end(metrics, measured, median(setup_cpu_s));
  }
  const std::size_t attempted = measured.attempted + untraced.attempted;
  const std::size_t failed = measured.failed + untraced.failed;
  const bool correct = failed == 0 && measured.hits == measured.pulses &&
                       untraced.hits == untraced.pulses && attempted > 0;

  ddmc::json::Array adopted;
  for (const SetupRecord& r : setups) {
    adopted.add(ddmc::json::Object()
                    .set("engine", r.outcome.engine_id)
                    .set("config", r.outcome.config.encode())
                    .set("configs_evaluated", r.outcome.configs_evaluated)
                    .set("winner_gflops", r.outcome.gflops)
                    .set("setup_wall_s", r.seconds)
                    .set("setup_cpu_s", r.cpu_seconds));
  }
  ddmc::json::Object provenance;
  provenance.set("commit", args.commit)
      .set("source_digest", args.source_digest)
      .set("compiler", PERFBENCH_COMPILER)
      .set("flags", PERFBENCH_FLAGS)
      .set("simd_backend", ddmc::simd::backend_name())
      .set("nproc", static_cast<std::size_t>(
                        std::thread::hardware_concurrency()))
      .set("workload", spec->name)
      .set("size", args.smoke ? "smoke" : "full")
      .set("seed", static_cast<std::size_t>(args.seed))
      .set("seconds", args.seconds)
      .set("trace", args.trace)
      .set_raw("adopted", adopted.dump());

  const Tail tail = latency_tail(measured);
  ddmc::json::Array segment_rt;
  ddmc::json::Array segment_margin;
  std::size_t begin = 0;
  for (std::size_t end : measured.segments) {
    segment_rt.add(sky_per_wall(measured, begin, end));
    segment_margin.add(rt_margin(measured, begin, end));
    begin = end;
  }
  ddmc::json::Object wall;
  wall.set("rt_factor", window_median(measured, sky_per_wall))
      .set("rt_margin", rt_margin(measured, 0, measured.sky.size()))
      .set("latency_p50_s", median(measured.latency))
      .set("latency_tail_s", tail.value)
      .set("latency_tail_percentile", tail.percentile)
      .set("latency_tail_samples", tail.samples)
      .set("latency_tail_pooled", tail.pooled)
      .set_raw("segment_rt_factor", segment_rt.dump())
      .set_raw("segment_rt_margin", segment_margin.dump());
  ddmc::json::Object detail;
  detail.set("results", measured.attempted)
      .set("setup_wall_s", median(setup_wall_s))
      .set_raw("wall", wall.dump())
      .set("partial_chunks", measured.partial_chunks)
      .set("pulses", measured.pulses)
      .set("hits", measured.hits)
      .set("wall_s", measured.wall_s)
      .set("sky_s", measured.sky_s);
  if (args.trace) detail.set_raw("self_time", self_time_json(tracer));

  ddmc::json::Object result;
  result.set("correct", correct)
      .set("attempted", attempted)
      .set("failed", failed)
      .set_raw("metrics", metrics.dump());

  const std::string stem = args.out_dir + "/" + spec->name + "_seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "_trace" : "");
  if (args.trace) {
    std::ofstream trace_file(stem + ".trace.json");
    tracer.write_json(trace_file);
  }
  std::ofstream result_file(stem + ".result.json");
  const std::string lines = ddmc::json::Object()
                                .set_raw("provenance", provenance.dump())
                                .dump() +
                            "\n" +
                            ddmc::json::Object()
                                .set_raw("detail", detail.dump())
                                .dump() +
                            "\n" + result.dump() + "\n";
  result_file << lines;
  std::cout << lines << std::flush;
  if (!correct) {
    std::cerr << "perfbench: correctness gate failed (" << failed << " of "
              << attempted << " results failed; recall "
              << measured.hits << "/" << measured.pulses << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold switches off glibc's adaptive one, so buffers of
  // 4 MiB and more go back to the system when freed and peak RSS tracks the
  // live working set instead of which arena happened to keep a freed block.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
