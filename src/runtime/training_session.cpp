#include "runtime/training_session.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "nn/checkpoint.hpp"

namespace hyscale {
namespace {

/// The accuracy gain that counts as an improvement for early stopping.
constexpr double kMinDelta = 1e-3;
/// Seeds evaluated per accuracy probe.
constexpr std::int64_t kEvalSeeds = 512;

}  // namespace

TrainingSession::TrainingSession(HybridTrainer& trainer, SessionConfig config)
    : trainer_(trainer), config_(std::move(config)) {
  if (config_.max_epochs <= 0)
    throw std::invalid_argument("TrainingSession: max_epochs must be positive");
  if (config_.patience < 0)
    throw std::invalid_argument("TrainingSession: patience must be >= 0");
}

SessionResult TrainingSession::run() {
  SessionResult result;
  int stale_epochs = 0;
  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    result.reports.push_back(trainer_.train_epoch());
    ++result.epochs_run;

    const double acc = trainer_.evaluate_accuracy(kEvalSeeds);
    log_message(LogLevel::kInfo, "session", "epoch ", epoch, " accuracy ", acc);
    if (acc > result.best_accuracy + kMinDelta) {
      result.best_accuracy = acc;
      result.best_epoch = epoch;
      stale_epochs = 0;
      if (!config_.checkpoint_path.empty()) {
        save_checkpoint(trainer_.model(), config_.checkpoint_path);
      }
    } else {
      ++stale_epochs;
      if (config_.patience > 0 && stale_epochs >= config_.patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  if (!config_.csv_path.empty()) {
    write_csv(result.reports, config_.csv_path);
  }
  return result;
}

}  // namespace hyscale
