// Closed-loop load generator for the inference server.
//
// N client threads each keep exactly one request in flight: draw random
// seed vertices, submit, block on the result, repeat.  Offered load is
// therefore controlled by the client count (classic closed-loop
// benchmarking), and backpressure shows up as rejected submissions that
// the client retries after a short backoff — so completed work is also
// a goodput number, not just an offered rate.
#pragma once

#include <cstdint>
#include <string>

#include "common/timer.hpp"
#include "graph/datasets.hpp"
#include "serving/inference_server.hpp"

namespace hyscale {

struct LoadGeneratorConfig {
  int num_clients = 4;
  int requests_per_client = 64;
  int seeds_per_request = 4;
  std::uint64_t seed = 7;
  /// When set, run() exports its totals as load.* values, frozen at the
  /// end of the run (the server reports serving.* through its own
  /// config independently).
  Telemetry* telemetry = nullptr;
};

struct LoadReport {
  Seconds wall_time = 0.0;
  std::int64_t completed_requests = 0;
  std::int64_t rejected_submits = 0;  ///< retries forced by backpressure
  double qps = 0.0;                   ///< completed / wall_time
  ServingSnapshot server;             ///< server-side stats over the run

  std::string to_string() const;
};

class LoadGenerator {
 public:
  /// `server` and `dataset` must outlive the generator.  Seeds are drawn
  /// uniformly from the dataset's materialised vertices.
  LoadGenerator(InferenceServer& server, const Dataset& dataset, LoadGeneratorConfig config = {});

  /// Runs the full closed-loop session; blocks until every client is done.
  LoadReport run();

 private:
  InferenceServer& server_;
  const Dataset& dataset_;
  LoadGeneratorConfig config_;
};

}  // namespace hyscale
