#include "device/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

namespace {
constexpr double kFeatBytes = 4.0;  // S_feat, single-precision
}

Seconds TrainerCostModel::propagation_time(const BatchStats& stats,
                                           const ModelConfig& model) const {
  const int num_layers = model.num_layers();
  if (static_cast<int>(stats.edges_per_layer.size()) < num_layers)
    throw std::invalid_argument("propagation_time: stats/model layer mismatch");

  auto combine = [this](Seconds agg, Seconds upd) {
    return pipelined() ? std::max(agg, upd) : agg + upd;
  };

  Seconds forward = 0.0, backward = 0.0;
  for (int l = 1; l <= num_layers; ++l) {
    const int f_in = model.dims[static_cast<std::size_t>(l - 1)];
    const int f_out = model.dims[static_cast<std::size_t>(l)];
    // SAGE's concat doubles the update width; GCN and GAT keep f_in.
    const int f_agg = model.kind == GnnKind::kSage ? 2 * f_in : f_in;
    const std::int64_t edges = stats.edges_per_layer[static_cast<std::size_t>(l - 1)];
    const std::int64_t sources = stats.vertices_per_layer[static_cast<std::size_t>(l - 1)];
    const std::int64_t dst = stats.vertices_per_layer[static_cast<std::size_t>(l)];

    const Seconds t_agg = aggregate_time(edges, sources, f_in);
    const Seconds t_upd = update_time(dst, f_agg, f_out);
    forward += combine(t_agg, t_upd) + layer_overhead();
    // Eq. 10 backward: layer 1 re-runs only the update; layers >= 2 re-run
    // both (gradient aggregation mirrors forward aggregation).  The real
    // trainer matches: GnnModel::backward never computes the first
    // layer's input gradient, so that layer runs only the dW GEMM (and
    // GAT's dZ).
    if (l == 1) {
      backward += t_upd + layer_overhead();
    } else {
      backward += combine(t_agg, t_upd) + layer_overhead();
    }
  }
  return forward + backward;
}

// ---------------------------------------------------------------- CPU --

CpuTrainerModel::CpuTrainerModel(const PlatformSpec& platform, int threads)
    : cpu_(platform.cpu),
      sockets_flops_(platform.cpu.peak_flops() * platform.num_sockets),
      mem_bw_(platform.cpu_mem_bw()),
      total_threads_(platform.cpu_threads) {
  set_threads(threads);
}

void CpuTrainerModel::set_threads(int threads) {
  threads_ = std::clamp(threads, 0, total_threads_);
}

Seconds CpuTrainerModel::aggregate_time(std::int64_t edges, std::int64_t /*unique_sources*/,
                                        int f_in) const {
  if (threads_ == 0) return 1e9;  // no threads assigned: effectively stalled
  const double share = static_cast<double>(threads_) / static_cast<double>(total_threads_);
  const double traffic = static_cast<double>(edges) * f_in * kFeatBytes;
  return traffic / (mem_bw_ * kGatherEfficiency * share);
}

Seconds CpuTrainerModel::update_time(std::int64_t num_dst, int f_agg, int f_out) const {
  if (threads_ == 0) return 1e9;
  const double share = static_cast<double>(threads_) / static_cast<double>(total_threads_);
  const double macs = static_cast<double>(num_dst) * f_agg * f_out;
  const double mac_rate = sockets_flops_ / 2.0 * kGemmEfficiency * share;
  return macs / mac_rate;
}

// ---------------------------------------------------------------- GPU --

GpuTrainerModel::GpuTrainerModel(const DeviceSpec& gpu, double gather_efficiency)
    : gpu_(gpu), gather_efficiency_(gather_efficiency) {
  if (gpu.kind != DeviceKind::kGpu)
    throw std::invalid_argument("GpuTrainerModel: spec is not a GPU");
  if (gather_efficiency <= 0.0 || gather_efficiency > 1.0)
    throw std::invalid_argument("GpuTrainerModel: gather_efficiency out of (0,1]");
}

Seconds GpuTrainerModel::aggregate_time(std::int64_t edges, std::int64_t /*unique_sources*/,
                                        int f_in) const {
  // O(|E^l|) feature reads at gather-degraded bandwidth (Eq. 11 with the
  // device-memory BW), plus writing the aggregated rows back out — the
  // GPU cannot fuse aggregation into the GEMM, so a_v round-trips
  // through device memory (the "intermediate results" spill of §VI-E1).
  const double gather = static_cast<double>(edges) * f_in * kFeatBytes /
                        (gpu_.mem_bw() * gather_efficiency_);
  return gather;
}

Seconds GpuTrainerModel::update_time(std::int64_t num_dst, int f_agg, int f_out) const {
  const double macs = static_cast<double>(num_dst) * f_agg * f_out;
  const double mac_rate = gpu_.peak_flops() / 2.0 * kGemmEfficiency;
  // Spill: the aggregated input is read and the activation written, both
  // streaming (full bandwidth).
  const double spill_bytes =
      static_cast<double>(num_dst) * (f_agg + f_out) * kFeatBytes;
  return macs / mac_rate + spill_bytes / gpu_.mem_bw();
}

// --------------------------------------------------------------- FPGA --

FpgaTrainerModel::FpgaTrainerModel(const DeviceSpec& fpga, int n_scatter_pes, int m_mac_units)
    : fpga_(fpga), n_(n_scatter_pes), m_(m_mac_units) {
  if (fpga.kind != DeviceKind::kFpga)
    throw std::invalid_argument("FpgaTrainerModel: spec is not an FPGA");
  if (n_ <= 0 || m_ <= 0) throw std::invalid_argument("FpgaTrainerModel: n, m must be positive");
}

Seconds FpgaTrainerModel::aggregate_time(std::int64_t edges, std::int64_t unique_sources,
                                         int f_in) const {
  // Input traffic: each distinct source feature is fetched once (edges
  // are pre-sorted by source; the Feature Duplicator broadcasts to all
  // S-PEs), so traffic is O(|V^{l-1}|) not O(|E^l|)  (§IV-C).
  const double traffic = static_cast<double>(unique_sources) * f_in * kFeatBytes;
  const Seconds memory_time = traffic / fpga_.mem_bw();
  // Compute: n scatter-gather PEs each consume kSimdLanes floats/cycle.
  const double elements = static_cast<double>(edges) * f_in;
  const Seconds pe_time = elements / (static_cast<double>(n_) * kSimdLanes * fpga_.freq_ghz * 1e9);
  return std::max(memory_time, pe_time);
}

Seconds FpgaTrainerModel::update_time(std::int64_t num_dst, int f_agg, int f_out) const {
  // m MAC units at the fabric clock; intermediates never leave the chip
  // (custom datapath, §IV-C), so there is no spill term.
  const double macs = static_cast<double>(num_dst) * f_agg * f_out;
  return macs / (static_cast<double>(m_) * fpga_.freq_ghz * 1e9);
}

// ------------------------------------------------------------ factory --

std::unique_ptr<TrainerCostModel> make_trainer_model(const PlatformSpec& platform,
                                                     const DeviceSpec& device) {
  switch (device.kind) {
    case DeviceKind::kCpu:
      return std::make_unique<CpuTrainerModel>(platform, platform.cpu_threads / 2);
    case DeviceKind::kGpu:
      return std::make_unique<GpuTrainerModel>(device);
    case DeviceKind::kFpga:
      return std::make_unique<FpgaTrainerModel>(device, /*n=*/8, /*m=*/2048);
  }
  throw std::invalid_argument("make_trainer_model: unknown device kind");
}

}  // namespace hyscale
