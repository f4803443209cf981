/// Cost of the candidate scan after dedispersion: sky::detect_best_dm on a
/// whole (DMs × samples) matrix, for the two shapes of the end-to-end
/// benchmark — LOFAR 64 × 20000 (one 0.1-s chunk) and Apertif 256 × 500 (one
/// block). The input is reference-dedispersed noise with one pulse, so the
/// rows carry real noise statistics and one aligned trial.
///
/// Reports ms per matrix and ns per sample as best-of plus spread (median
/// and max) over --reps timed calls after one warm-up. Every row carries the
/// compiler, flags, SIMD backend and host CPU count.
///
///   ./bench_detection [--reps 15] [--max-samples 0] [--json BENCH_detection.json]
///
/// --max-samples caps each shape's sample count (0 = the full shapes); use
/// a small value for a smoke run.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/reference.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "sky/signal.hpp"

namespace {

using namespace ddmc;

struct Shape {
  sky::Observation obs;
  std::size_t dms = 0;
  std::size_t samples = 0;
};

struct Row {
  std::string shape;
  std::size_t dms = 0;
  std::size_t samples = 0;
  std::size_t pulse_trial = 0;
  sky::DetectionResult detection;
  double best_ms = 0.0;
  double median_ms = 0.0;
  double max_ms = 0.0;
  double best_ns_per_sample = 0.0;
};

Array2D<float> dedispersed_pulse(const Shape& shape, std::size_t& pulse_trial) {
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(shape.obs, shape.dms, shape.samples);
  pulse_trial = shape.dms / 2;
  sky::PulsarParams pulsar;
  pulsar.dm = shape.obs.dm_value(pulse_trial);
  pulsar.period_s = 10.0;  // one pulse in the window
  pulsar.width_s = 2.0 / shape.obs.sampling_rate();
  pulsar.amplitude = 2.0;
  pulsar.first_pulse_s = 0.5 * static_cast<double>(shape.samples) /
                         shape.obs.sampling_rate();
  const Array2D<float> input = sky::make_observation_data(
      shape.obs, plan.in_samples(), pulsar, sky::NoiseParams{1.0, 0.0, 14});
  return dedisp::dedisperse_reference(plan, input.cview());
}

Row measure(const std::string& name, const Shape& shape, std::size_t reps) {
  Row row;
  row.shape = name;
  row.dms = shape.dms;
  row.samples = shape.samples;
  const Array2D<float> matrix = dedispersed_pulse(shape, row.pulse_trial);
  row.detection = sky::detect_best_dm(matrix.cview());  // warm-up
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch clock;
    const sky::DetectionResult res = sky::detect_best_dm(matrix.cview());
    ms.push_back(clock.seconds() * 1e3);
    DDMC_REQUIRE(res.best_trial == row.detection.best_trial,
                 "detection is not deterministic");
  }
  std::sort(ms.begin(), ms.end());
  row.best_ms = ms.front();
  row.median_ms = percentile_sorted(ms, 50.0);
  row.max_ms = ms.back();
  row.best_ns_per_sample = row.best_ms * 1e6 /
                           static_cast<double>(shape.dms * shape.samples);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_detection",
          "peak-S/N candidate scan over a dedispersed matrix");
  cli.add_option("reps", "timed repetitions per shape", "15");
  cli.add_option("max-samples", "cap on samples per trial (0 = full shapes)",
                 "0");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto cap = static_cast<std::size_t>(cli.get_int("max-samples"));
  DDMC_REQUIRE(reps > 0, "--reps must be positive");
  auto capped = [cap](std::size_t samples) {
    return cap == 0 ? samples : std::min(samples, cap);
  };
  const std::vector<std::pair<std::string, Shape>> shapes = {
      {"lofar", {sky::lofar(), 64, capped(20000)}},
      {"apertif", {sky::apertif(), 256, capped(500)}},
  };

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<Row> rows;
  for (const auto& [name, shape] : shapes) {
    rows.push_back(measure(name, shape, reps));
  }

  std::cout << "== detect_best_dm, " << reps << " reps, simd "
            << simd::backend_name() << ", " << nproc << " CPUs ==\n"
            << DDMC_BENCH_COMPILER << " | " << DDMC_BENCH_FLAGS << "\n\n";
  TextTable table({"shape", "DMs x samples", "best ms", "median ms", "max ms",
                   "ns/sample", "trial (pulse)"});
  for (const Row& r : rows) {
    table.add_row({r.shape,
                   std::to_string(r.dms) + " x " + std::to_string(r.samples),
                   TextTable::num(r.best_ms, 3), TextTable::num(r.median_ms, 3),
                   TextTable::num(r.max_ms, 3),
                   TextTable::num(r.best_ns_per_sample, 2),
                   std::to_string(r.detection.best_trial) + " (" +
                       std::to_string(r.pulse_trial) + ")"});
  }
  table.print(std::cout);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const Row& r : rows) {
      arr.add(bench::JsonObject()
                  .set("shape", r.shape)
                  .set("dms", r.dms)
                  .set("samples", r.samples)
                  .set("reps", reps)
                  .set("best_ms", r.best_ms)
                  .set("median_ms", r.median_ms)
                  .set("max_ms", r.max_ms)
                  .set("best_ns_per_sample", r.best_ns_per_sample)
                  .set("best_trial", r.detection.best_trial)
                  .set("pulse_trial", r.pulse_trial)
                  .set("best_snr", r.detection.best_snr)
                  .set("compiler", DDMC_BENCH_COMPILER)
                  .set("flags", DDMC_BENCH_FLAGS)
                  .set("simd_backend", simd::backend_name())
                  .set("nproc", nproc));
    }
    bench::JsonObject root;
    root.set("bench", "bench_detection").set_raw("rows", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
