#include "shard/cut_adopter.hpp"

namespace hyscale {

CutAdopter::CutAdopter(ShardedStreamingGraph& graph) : graph_(graph) {
  Heartbeat* heart = nullptr;  // liveness stamp when telemetry on
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr) {
    // Busy time is one adopt (a version-vector snapshot);
    // the poll interval is the natural beat hint.
    heart = &telemetry->heartbeats().register_thread(
        "sharded.adopter", static_cast<std::int64_t>(kCutAdopterPoll * 1e9));
  }
  thread_.start(heart, [this] {
    while (thread_.sleep(kCutAdopterPoll)) {
      if (!graph_.cut_stale()) continue;
      const auto before = graph_.current_cut();
      const auto after = graph_.adopt();
      // adopt() returns the unchanged cut when a racing caller (a
      // test's publish_all) already advanced past what we saw; only
      // count cuts this thread actually installed.
      if (after != before) adoptions_.fetch_add(1, std::memory_order_relaxed);
      thread_.beat();
    }
  });
}

}  // namespace hyscale
