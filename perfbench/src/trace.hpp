#pragma once
/// \file trace.hpp
/// \brief The benchmark's own span recorder.
///
/// Spans are recorded around each call the benchmark makes into a library
/// layer (tuning, dedispersion, ring push, consume, sink, detection), never
/// inside the library. Each span carries a name, start and end on one
/// steady clock, the id of the span that caused it and a request id (the
/// block or chunk it served). Spans are kept in memory and written once,
/// when the benchmark ends. A disabled recorder costs one branch per span.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's steady clock (zero at process start).
double now_s();
/// Sleep until now_s() reaches \p t.
void sleep_until_s(double t);

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< block / chunk / push index
  std::uint32_t thread = 0;   ///< small per-thread index, for the timeline
  double start = 0.0;
  double end = 0.0;
};

/// Total and self time of one span name. Self time is the span's duration
/// minus the part of it that its child spans cover.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// Spans are ignored until enable(); memory for \p capacity spans is
  /// reserved up front so recording never reallocates mid-run.
  explicit Tracer(std::size_t capacity = 1 << 18);

  /// Toggle only while no other thread records spans.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Id for a span about to start (0 while disabled).
  std::uint64_t next_id();
  void record(const Span& span);

  std::vector<Span> spans() const;
  /// Per span name, ordered by name.
  std::vector<SelfTime> self_times() const;
  /// Chrome trace_event JSON plus the self-time summary.
  void write_json(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  mutable std::mutex mutex_;
};

/// RAII span: starts on construction, recorded on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
        std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

}  // namespace perfbench
