// TrainingSession: the multi-epoch driver a user runs — epochs, held-out
// evaluation, early stopping on plateau, best-checkpoint tracking.
//
// Wraps HybridTrainer with the bookkeeping every real training campaign
// needs but the paper's evaluation (throughput-focused) does not discuss.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "runtime/csv_report.hpp"
#include "runtime/hybrid_trainer.hpp"

namespace hyscale {

struct SessionConfig {
  int max_epochs = 20;
  /// Stop after this many epochs without improving train accuracy by at
  /// least 1e-3; 0 disables early stopping.
  int patience = 5;
  /// When non-empty, best-model parameters are checkpointed here.
  std::string checkpoint_path;
  /// When non-empty, per-epoch CSV metrics are written here at the end.
  std::string csv_path;
};

struct SessionResult {
  std::vector<EpochReport> reports;
  double best_accuracy = 0.0;
  int best_epoch = -1;
  bool early_stopped = false;
  int epochs_run = 0;
};

class TrainingSession {
 public:
  TrainingSession(HybridTrainer& trainer, SessionConfig config);

  /// Runs until max_epochs or early stop; returns the full record.
  SessionResult run();

 private:
  HybridTrainer& trainer_;
  SessionConfig config_;
};

}  // namespace hyscale
