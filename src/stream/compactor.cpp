#include "stream/compactor.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

Compactor::Compactor(StreamingGraph& graph, CompactionPolicy policy)
    : graph_(graph), policy_(policy) {
  if (policy_.max_overlay_edges <= 0)
    throw std::invalid_argument("Compactor: max_overlay_edges must be positive");
  if (policy_.max_overlay_ratio <= 0.0)
    throw std::invalid_argument("Compactor: max_overlay_ratio must be positive");
  if (policy_.max_backoff < 0.0)
    throw std::invalid_argument("Compactor: max_backoff must be non-negative");
  Heartbeat* heart = nullptr;  // liveness stamp when telemetry on
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr) {
    MetricsRegistry& reg = telemetry->registry();
    // Instruments inherit the graph's shard prefix so per-shard
    // compactors sharing one registry stay distinguishable.
    const std::string& prefix = graph_.config().metric_prefix;
    register_count(reg, prefix + "compactor.folds", this, compactions_);
    register_count(reg, prefix + "compactor.annihilation_passes", this, annihilation_passes_);
    register_count(reg, prefix + "compactor.refused_folds", this, refused_folds_);
    // Hint = poll cadence: between maintenance rounds the loop beats
    // once per wakeup, so a heart stale for many multiples of this
    // while busy means the thread is wedged inside a fold.
    heart = &telemetry->heartbeats().register_thread(
        prefix + "stream.compactor",
        std::max<std::int64_t>(static_cast<std::int64_t>(policy_.poll_interval * 1e9),
                               1'000'000));
  }
  try {
    thread_.start(heart, [this] { loop(); });
  } catch (...) {
    // No destructor runs: drop the callbacks over this half-built object.
    if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr)
      telemetry->registry().detach(this);
    throw;
  }
}

Compactor::~Compactor() {
  stop();
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr)
    telemetry->registry().detach(this);
}

Compactor::Maintenance Compactor::decide() const {
  // Pending ops of either sign: tombstones cost sampling-path skips
  // just like insertions cost merges, so both count toward the fold.
  // Pending scrubs (op-less vertex retirements) also trigger, else
  // their ids and feature rows would never be recycled — but only once
  // the free pool is dry, so a sustained retirement stream batches
  // into one fold per pool refill instead of one rebuild per death.
  const bool op_pressure = graph_.overlay_ops() >= policy_.max_overlay_edges ||
                           graph_.overlay_ratio() >= policy_.max_overlay_ratio;
  const bool scrub_pressure = graph_.has_pending_scrubs() && graph_.recyclable_vertices() == 0;
  if (!op_pressure && !scrub_pressure) return Maintenance::kNone;
  // Annihilation only shrinks op buffers, and only ever erases
  // insert/tombstone PAIRS — with zero tombstones pending there is
  // nothing to cancel, so an insert-only overlay goes straight to the
  // fold instead of paying an exclusive no-op bucket scan.  A
  // scrub-driven trigger needs the fold regardless (the free pool
  // refills only on rebase).
  if (op_pressure && graph_.overlay_tombstones() > 0)
    return Maintenance::kAnnihilate;
  // A fold is already in flight (its O(base) build runs off-lock, so
  // this loop keeps running meanwhile): its rebase will clear the
  // pressure, and starting a second fold would only be refused.  The
  // annihilation above is still worthwhile — it erases pairs cancelled
  // entirely after the in-flight cut.
  if (graph_.fold_in_flight()) return Maintenance::kNone;
  return Maintenance::kFold;
}

Seconds Compactor::next_backoff(Seconds current, const CompactionPolicy& policy) {
  const Seconds grown = current <= 0.0 ? policy.poll_interval : current * 2.0;
  return std::min(grown, policy.max_backoff);
}

void Compactor::loop() {
  Seconds backoff = 0.0;
  while (thread_.sleep(policy_.poll_interval + backoff)) {
    const Maintenance action = decide();
    if (action == Maintenance::kNone) {
      backoff = 0.0;
      continue;
    }
    if (action == Maintenance::kAnnihilate) {
      const EdgeId erased = graph_.annihilate();
      thread_.beat();
      const Maintenance after = decide();
      const bool folding = graph_.fold_in_flight();
      if (after == Maintenance::kNone) {
        // Pressure gone — the in-place pass resolved the round (unless
        // decide() only read kNone because a fold is mid-flight, in
        // which case the rebase gets the credit).
        if (!folding) {
          annihilation_passes_.fetch_add(1, std::memory_order_relaxed);
        }
        backoff = 0.0;
        continue;
      }
      if (after == Maintenance::kAnnihilate && folding) {
        // The landing rebase will clear the pressure — do not stack a
        // fold that would only be refused.  A pass that erased nothing
        // (every cancelled pair straddles the in-flight cut, so all of
        // it is pinned) also widens the wait: a long build should not
        // be punctuated by a fruitless exclusive bucket scan per tick.
        backoff = erased > 0 ? 0.0 : next_backoff(backoff, policy_);
        continue;
      }
      // Pressure remains and no fold is in flight: escalate to the
      // rebuild exactly as the pre-annihilation policy would.
    }
    // The heart stays BUSY across the fold: a hook- or lock-parked
    // compact() stops beating without going idle, which is exactly the
    // signature the watchdog flags.
    if (graph_.compact()) {
      compactions_.fetch_add(1, std::memory_order_relaxed);
      backoff = 0.0;
    } else if (should_compact()) {
      // Fold refused while the trigger stays hot (e.g. a long-lived
      // structural race): widen the next wait instead of spinning one
      // refused snapshot per poll tick.
      refused_folds_.fetch_add(1, std::memory_order_relaxed);
      backoff = next_backoff(backoff, policy_);
    } else {
      backoff = 0.0;
    }
    thread_.beat();
  }
}

}  // namespace hyscale
