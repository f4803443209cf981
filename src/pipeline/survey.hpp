#pragma once
/// \file survey.hpp
/// \brief Real-time survey sizing (§V-D).
///
/// "Apertif will need to dedisperse in real-time 2,000 DMs, and do this for
/// 450 different beams. Using our best performing accelerator, the AMD
/// HD7970, it is possible to dedisperse 2,000 DMs in 0.106 seconds;
/// combining 9 beams per GPU … dedispersion for Apertif could be implemented
/// today with just 50 GPUs, instead of the 1,800 CPUs that would be
/// necessary otherwise."

#include <cstddef>

#include "ocl/device.hpp"
#include "ocl/perf_model.hpp"
#include "sky/observation.hpp"

namespace ddmc::pipeline {

struct SurveySizing {
  double seconds_per_beam = 0.0;   ///< tuned time to dedisperse 1 s, 1 beam
  double tuned_gflops = 0.0;       ///< tuned kernel throughput
  /// Fractional real-time compute pressure, 1 / seconds_per_beam: 9.4 means
  /// one device sustains 9 whole beams; 0.25 means four devices share one
  /// beam (e.g. each owning a DM shard, pipeline/executor.hpp).
  double beams_per_device_realtime = 0.0;
  std::size_t beams_per_device_compute = 0;  ///< floor of the above
  std::size_t beams_per_device_memory = 0;   ///< device-memory limit
  std::size_t beams_per_device = 0;          ///< min of the two
  std::size_t devices_needed = 0;  ///< for all beams, real-time
  bool feasible = false;           ///< a real-time deployment exists
};

/// Tune \p device on (obs, dms) and derive how many devices a survey with
/// \p beams beams needs to stay real-time. Devices faster than one beam per
/// second pack floor(beams_per_device) beams each; slower devices *share*
/// beams — devices_needed = ceil(seconds_per_beam × beams), the same
/// semantics cpus_needed() always had — instead of declaring the survey
/// infeasible. Only a beam that cannot fit device memory is infeasible.
SurveySizing size_survey(const ocl::DeviceModel& device,
                         const sky::Observation& obs, std::size_t dms,
                         std::size_t beams);

/// CPUs needed for the same survey with the §V-D baseline implementation.
std::size_t cpus_needed(const ocl::DeviceModel& cpu,
                        const sky::Observation& obs, std::size_t dms,
                        std::size_t beams);

}  // namespace ddmc::pipeline
