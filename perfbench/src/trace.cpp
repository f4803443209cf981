#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of [start, end) intervals, each clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      reach = end;
    }
  }
  return total;
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(t)));
}

Tracer::Tracer(std::size_t capacity) { spans_.reserve(capacity); }

std::uint64_t Tracer::next_id() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<SelfTime> Tracer::self_times() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : all) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const double duration = s.end - s.start;
    t.total_s += duration;
    const auto it = children.find(s.id);
    t.self_s += it == children.end()
                    ? duration
                    : duration - covered(it->second, s.start, s.end);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  // Chrome trace_event "complete" events; parent and request ride in args.
  ddmc::json::Array events;
  for (const Span& s : spans()) {
    ddmc::json::Object args;
    args.set("id", static_cast<std::size_t>(s.id))
        .set("parent", static_cast<std::size_t>(s.parent))
        .set("request", static_cast<std::size_t>(s.request));
    ddmc::json::Object e;
    e.set("name", s.name)
        .set("ph", "X")
        .set("pid", std::size_t{1})
        .set("tid", static_cast<std::size_t>(s.thread))
        .set("ts", s.start * 1e6)
        .set("dur", (s.end - s.start) * 1e6)
        .set_raw("args", args.dump());
    events.add(e);
  }
  ddmc::json::Array summary;
  for (const SelfTime& t : self_times()) {
    summary.add(ddmc::json::Object()
                    .set("name", t.name)
                    .set("count", t.count)
                    .set("total_s", t.total_s)
                    .set("self_s", t.self_s));
  }
  ddmc::json::Object root;
  root.set_raw("traceEvents", events.dump())
      .set_raw("self_time", summary.dump())
      .set("dropped_spans", dropped_);
  os << root.dump() << "\n";
}

Scope::Scope(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.parent = parent;
  span_.request = request;
  span_.thread = thread_index();
  span_.start = now_s();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end = now_s();
  tracer_.record(span_);
}

}  // namespace perfbench
