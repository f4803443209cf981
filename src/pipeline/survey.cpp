#include "pipeline/survey.hpp"

#include <cmath>

#include "common/expect.hpp"
#include "dedisp/plan.hpp"
#include "tuner/tuner.hpp"

namespace ddmc::pipeline {

SurveySizing size_survey(const ocl::DeviceModel& device,
                         const sky::Observation& obs, std::size_t dms,
                         std::size_t beams) {
  DDMC_REQUIRE(beams > 0, "need at least one beam");
  const dedisp::Plan plan(obs, dms);
  ocl::PlanAnalysis analysis(plan);
  const tuner::TuningResult tuned = tuner::tune(device, analysis);

  SurveySizing s;
  s.seconds_per_beam = tuned.best.perf.seconds;
  s.tuned_gflops = tuned.best.perf.gflops;
  if (s.seconds_per_beam > 0.0) {
    s.beams_per_device_realtime = 1.0 / s.seconds_per_beam;
    s.beams_per_device_compute =
        static_cast<std::size_t>(std::floor(s.beams_per_device_realtime));
  }
  const double bytes_per_beam =
      plan.input_bytes() + plan.output_bytes() +
      4.0 * static_cast<double>(dms) * static_cast<double>(plan.channels());
  s.beams_per_device_memory = static_cast<std::size_t>(
      std::floor(0.9 * device.memory_bytes() / bytes_per_beam));
  s.beams_per_device =
      std::min(s.beams_per_device_compute, s.beams_per_device_memory);
  // A device slower than one beam-second per second is not infeasible —
  // several devices share one beam (cpus_needed's semantics; in practice
  // each owns a DM shard, pipeline/executor.hpp). Only a beam whose data
  // cannot fit device memory has no deployment at all.
  s.feasible = s.beams_per_device_memory > 0;
  if (!s.feasible) return s;
  if (s.beams_per_device >= 1) {
    s.devices_needed = ceil_div(beams, s.beams_per_device);
  } else {
    s.devices_needed = static_cast<std::size_t>(
        std::ceil(s.seconds_per_beam * static_cast<double>(beams)));
  }
  return s;
}

std::size_t cpus_needed(const ocl::DeviceModel& cpu,
                        const sky::Observation& obs, std::size_t dms,
                        std::size_t beams) {
  const dedisp::Plan plan(obs, dms);
  const ocl::PerfEstimate perf = ocl::estimate_cpu_baseline(cpu, plan);
  // A CPU handles floor(1 / seconds) beams in real-time; when one beam
  // itself takes more than a second, several CPUs share a beam.
  if (perf.seconds <= 1.0) {
    const auto beams_per_cpu =
        static_cast<std::size_t>(std::floor(1.0 / perf.seconds));
    return ceil_div(beams, beams_per_cpu);
  }
  return static_cast<std::size_t>(
      std::ceil(perf.seconds * static_cast<double>(beams)));
}

}  // namespace ddmc::pipeline
