#include "serving/load_generator.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace hyscale {
namespace {

constexpr Seconds kRetryBackoff = 200e-6;  ///< sleep after a rejected submit

}  // namespace

LoadGenerator::LoadGenerator(InferenceServer& server, const Dataset& dataset,
                             LoadGeneratorConfig config)
    : server_(server), dataset_(dataset), config_(config) {
  if (config_.num_clients < 1)
    throw std::invalid_argument("LoadGenerator: num_clients must be >= 1");
  if (config_.requests_per_client < 1)
    throw std::invalid_argument("LoadGenerator: requests_per_client must be >= 1");
  if (config_.seeds_per_request < 1)
    throw std::invalid_argument("LoadGenerator: seeds_per_request must be >= 1");
}

LoadReport LoadGenerator::run() {
  const auto num_vertices = static_cast<std::uint64_t>(dataset_.graph.num_vertices());
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> rejected{0};

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(config_.num_clients));
  for (int c = 0; c < config_.num_clients; ++c) {
    // Closed-loop clients spend most of their life blocked on a result;
    // that wait is idle time for the watchdog, and each completed
    // request is a beat — a client wedged on a lost future goes stale.
    Heartbeat* heart =
        config_.telemetry != nullptr
            ? &config_.telemetry->heartbeats().register_thread(
                  "load.client." + std::to_string(c), /*interval_hint_ns=*/100'000'000)
            : nullptr;
    clients.emplace_back([&, c, heart] {
      Xoshiro256 rng(config_.seed + static_cast<std::uint64_t>(c) * 0x9e3779b9ULL);
      std::vector<VertexId> seeds(static_cast<std::size_t>(config_.seeds_per_request));
      if (heart != nullptr) heart->beat();
      for (int r = 0; r < config_.requests_per_client; ++r) {
        for (auto& s : seeds) s = static_cast<VertexId>(rng.bounded(num_vertices));
        for (;;) {
          auto future = server_.try_submit(seeds);
          if (future) {
            if (heart != nullptr) heart->idle_enter();
            future->get();
            if (heart != nullptr) heart->idle_exit();
            completed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          rejected.fetch_add(1, std::memory_order_relaxed);
          if (heart != nullptr) heart->idle_enter();
          std::this_thread::sleep_for(
              std::chrono::duration<double>(kRetryBackoff));
          if (heart != nullptr) heart->idle_exit();
        }
      }
      if (heart != nullptr) heart->retire();
    });
  }
  for (auto& client : clients) client.join();

  LoadReport report;
  report.wall_time = wall.elapsed();
  report.completed_requests = completed.load();
  report.rejected_submits = rejected.load();
  if (report.wall_time > 0.0)
    report.qps = static_cast<double>(report.completed_requests) / report.wall_time;
  report.server = server_.stats();
  if (config_.telemetry != nullptr) {
    // End-of-run values: registered, then frozen at once.
    MetricsRegistry& reg = config_.telemetry->registry();
    const auto report_value = [&](const char* name, double value) {
      reg.register_callback(name, this, [value] { return value; });
    };
    report_value("load.completed_requests", static_cast<double>(report.completed_requests));
    report_value("load.rejected_submits", static_cast<double>(report.rejected_submits));
    report_value("load.wall_seconds", report.wall_time);
    report_value("load.qps", report.qps);
    reg.detach(this);
  }
  return report;
}

std::string LoadReport::to_string() const {
  std::string out;
  out += format_count(static_cast<std::uint64_t>(completed_requests)) + " requests in " +
         format_double(wall_time, 3) + "s  qps=" + format_double(qps, 1);
  out += "  p50=" + format_double(server.latency_p50 * 1e3, 3) + "ms";
  out += "  p99=" + format_double(server.latency_p99 * 1e3, 3) + "ms";
  out += "  mean_batch=" + format_double(server.mean_batch_requests, 2);
  out += "  rejected=" + format_count(static_cast<std::uint64_t>(rejected_submits));
  return out;
}

}  // namespace hyscale
