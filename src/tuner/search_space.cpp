#include "tuner/search_space.hpp"

#include <set>

#include "common/expect.hpp"

namespace ddmc::tuner {

SearchSpace default_search_space() {
  SearchSpace s;
  // Powers of two up to the largest work-group any Table I device accepts,
  // plus the decimal divisors of the setups' samples-per-second — the paper
  // finds optima like 250×4 (LOFAR, GTX 680) that are not powers of two.
  s.wi_time = {1,  2,  4,  8,  10, 16,  20,  25,  32,  50,  64,
               100, 125, 128, 200, 250, 256, 500, 512, 1000, 1024};
  s.wi_dm = {1, 2, 4, 8, 16, 32};
  s.elem_time = {1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 50};
  s.elem_dm = {1, 2, 4, 8};
  // Host-engine axes. The channel blocks bracket the L1/L2 residency
  // sweet spots of the setups' channel counts (Apertif/LOFAR: 1024 and
  // 2048 channels); 0 is the unblocked single pass.
  s.channel_block = {0, 32, 128, 512};
  s.unroll = {1, 2, 4};
  return s;
}

std::vector<dedisp::KernelConfig> enumerate_configs(
    const ocl::DeviceModel& device, const dedisp::Plan& plan,
    const SearchSpace& space) {
  std::vector<dedisp::KernelConfig> out;
  for (std::size_t wt : space.wi_time) {
    for (std::size_t wd : space.wi_dm) {
      if (wt * wd > device.max_work_group_size) continue;
      for (std::size_t et : space.elem_time) {
        if (plan.out_samples() % (wt * et) != 0) continue;
        for (std::size_t ed : space.elem_dm) {
          if (plan.dms() % (wd * ed) != 0) continue;
          const dedisp::KernelConfig cfg{wt, wd, et, ed};
          if (cfg.accumulators_per_item() + device.reg_overhead_per_item >
              device.max_regs_per_item) {
            continue;
          }
          out.push_back(cfg);
        }
      }
    }
  }
  return out;
}

std::vector<dedisp::KernelConfig> enumerate_host_configs(
    const dedisp::Plan& plan, std::size_t max_work_group_size,
    const SearchSpace& space) {
  std::vector<dedisp::KernelConfig> out;
  for (std::size_t wt : space.wi_time) {
    for (std::size_t wd : space.wi_dm) {
      if (wt * wd > max_work_group_size) continue;
      for (std::size_t et : space.elem_time) {
        if (plan.out_samples() % (wt * et) != 0) continue;
        for (std::size_t ed : space.elem_dm) {
          if (plan.dms() % (wd * ed) != 0) continue;
          for (std::size_t cb : space.channel_block) {
            if (cb >= plan.channels() && cb != 0) continue;
            for (std::size_t un : space.unroll) {
              if (un == 0) continue;
              out.push_back(dedisp::KernelConfig{wt, wd, et, ed, cb, un});
            }
          }
        }
      }
    }
  }
  return out;
}

HostKernelKey host_kernel_key(const dedisp::KernelConfig& config,
                              const dedisp::Plan& plan, bool vectorize) {
  HostKernelKey key;
  key.tile_time = config.tile_time();
  key.tile_dm = config.tile_dm();
  key.channel_block = config.effective_channel_block(plan);
  if (vectorize) {
    // Mirror the compiled-instantiation dispatch of cpu_kernel.cpp: values
    // outside the ladder fall back to the narrowest kernel.
    key.reg_rows = (config.elem_dm == 2 || config.elem_dm == 4 ||
                    config.elem_dm == 8)
                       ? config.elem_dm
                       : 1;
    key.unroll = (config.unroll == 2 || config.unroll == 4 ||
                  config.unroll == 8)
                     ? config.unroll
                     : 1;
  }
  return key;
}

std::vector<dedisp::KernelConfig> dedupe_host_configs(
    const dedisp::Plan& plan, const std::vector<dedisp::KernelConfig>& configs,
    bool vectorize) {
  std::vector<dedisp::KernelConfig> out;
  std::set<HostKernelKey> seen;
  for (const dedisp::KernelConfig& cfg : configs) {
    if (seen.insert(host_kernel_key(cfg, plan, vectorize)).second) {
      out.push_back(cfg);
    }
  }
  return out;
}

std::vector<dedisp::KernelConfig> host_sweep_candidates(
    const dedisp::Plan& plan, bool vectorize, const HostTuningOptions& options,
    const std::vector<dedisp::KernelConfig>& configs) {
  std::vector<dedisp::KernelConfig> valid;
  const std::vector<dedisp::KernelConfig>& space =
      configs.empty()
          ? enumerate_host_configs(plan, options.max_work_group_size)
          : configs;
  valid.reserve(space.size());
  for (const dedisp::KernelConfig& cfg : space) {
    try {
      cfg.validate(plan);
    } catch (const config_error&) {
      continue;
    }
    valid.push_back(cfg);
  }
  return dedupe_host_configs(plan, valid, vectorize);
}

}  // namespace ddmc::tuner
