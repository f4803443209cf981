#pragma once
/// \file search_space.hpp
/// \brief Enumeration of the "meaningful" kernel configurations.
///
/// §IV-A: "The algorithm is executed for every meaningful combination of the
/// four parameters … A configuration is considered meaningful if it fulfills
/// all the constraints posed by a specific platform, setup and input
/// instance." This module enumerates candidates from a candidate ladder per
/// parameter (powers of two plus the divisors of the paper's sampling rates,
/// which is how configurations like 250×4 arise on LOFAR) and filters them
/// against the cheap constraints: tile divisibility, the device work-group
/// limit and the per-thread register cap. Deeper constraints (local-memory
/// capacity, residency) are enforced by the performance model / simulator,
/// which throw ddmc::config_error — the tuner counts those as skipped.
///
/// The host engine widens the space with two further axes, `channel_block`
/// and `unroll` (see dedisp::KernelConfig). The device-model enumeration
/// (enumerate_configs) leaves them at their neutral defaults — the OpenCL
/// model has no notion of them — while the measured host sweep covers them
/// through enumerate_host_configs and host_sweep_candidates.

#include <vector>

#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "ocl/device.hpp"

namespace ddmc::tuner {

struct SearchSpace {
  std::vector<std::size_t> wi_time;
  std::vector<std::size_t> wi_dm;
  std::vector<std::size_t> elem_time;
  std::vector<std::size_t> elem_dm;
  /// Host-engine axes; 0 in channel_block means "all channels in one pass".
  std::vector<std::size_t> channel_block;
  std::vector<std::size_t> unroll;
};

/// The default ladder used by every experiment in this repository.
SearchSpace default_search_space();

/// All candidate configurations of \p space that pass the cheap validity
/// checks for (device, plan). Deterministic order (lexicographic in the
/// parameter ladders). Host-only axes stay at their defaults here.
std::vector<dedisp::KernelConfig> enumerate_configs(
    const ocl::DeviceModel& device, const dedisp::Plan& plan,
    const SearchSpace& space = default_search_space());

/// Candidate configurations for the measured host sweep: the four paper
/// axes filtered by divisibility and \p max_work_group_size (host kernels
/// have no register or local-memory limits worth enforcing), crossed with
/// every meaningful channel_block (values ≥ the channel count collapse onto
/// the "all channels" pass and are dropped) and every unroll ladder value.
std::vector<dedisp::KernelConfig> enumerate_host_configs(
    const dedisp::Plan& plan, std::size_t max_work_group_size,
    const SearchSpace& space = default_search_space());

/// The parameters that actually distinguish two host-kernel executions.
/// The host engine has no work-groups: a config reaches it only through its
/// tile extents, its register-tile rows (elem_dm, collapsed onto the
/// compiled {1,2,4,8} instantiations), the effective channel block and the
/// unroll instantiation — so e.g. {wi_time=8, elem_time=2} and
/// {wi_time=4, elem_time=4} run the identical kernel. The scalar engine
/// ignores the register-tile and unroll knobs entirely.
struct HostKernelKey {
  std::size_t tile_time = 0;
  std::size_t tile_dm = 0;
  std::size_t reg_rows = 1;       ///< compiled DR (1 when not vectorizing)
  std::size_t channel_block = 0;  ///< effective block for the plan
  std::size_t unroll = 1;         ///< compiled U (1 when not vectorizing)

  friend bool operator==(const HostKernelKey&, const HostKernelKey&) = default;
  friend auto operator<=>(const HostKernelKey&, const HostKernelKey&) = default;
};

HostKernelKey host_kernel_key(const dedisp::KernelConfig& config,
                              const dedisp::Plan& plan, bool vectorize);

/// Drop candidates that are host-execution duplicates of an earlier one
/// (same HostKernelKey), keeping the first representative in \p configs
/// order. The default ladder crossed with the divisor candidates produces
/// many such duplicates; timing them again only wastes sweep minutes.
std::vector<dedisp::KernelConfig> dedupe_host_configs(
    const dedisp::Plan& plan, const std::vector<dedisp::KernelConfig>& configs,
    bool vectorize = true);

/// Measurement knobs of a host sweep. The host-execution flags (SIMD,
/// threads) are not among them: they belong to the engine being
/// measured (engine::EngineOptions::cpu), which is also what the tuning
/// cache keys on.
struct HostTuningOptions {
  std::size_t repetitions = 3;   ///< timed runs per configuration (paper: 10)
  std::size_t warmup_runs = 1;   ///< untimed cache-warming runs
  /// Skip configurations whose tile covers the whole instance more than
  /// once over (they cannot win and waste sweep time).
  std::size_t max_work_group_size = 1024;
};

/// The candidate list a host sweep actually times: \p configs (or the
/// default ladder restricted to the plan, when empty), minus configs that
/// fail validation, minus host-execution duplicates of the SIMD
/// (\p vectorize) or scalar kernel — the default ladder crossed with the
/// divisor candidates reaches the same host kernel under many (wi, elem)
/// splits, and timing a kernel twice only wastes sweep time. This is the
/// tiled engines' config_space.
std::vector<dedisp::KernelConfig> host_sweep_candidates(
    const dedisp::Plan& plan, bool vectorize = true,
    const HostTuningOptions& options = {},
    const std::vector<dedisp::KernelConfig>& configs = {});

}  // namespace ddmc::tuner
