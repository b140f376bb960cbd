// Tests for runtime/csv_report and runtime/training_session.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strutil.hpp"
#include "graph/datasets.hpp"
#include "nn/checkpoint.hpp"
#include "runtime/csv_report.hpp"
#include "runtime/training_session.hpp"

namespace hyscale {
namespace {

HybridTrainerConfig session_trainer_config() {
  HybridTrainerConfig config;
  config.fanouts = {5, 5};
  config.learning_rate = 0.3;
  config.real_batch_total = 96;
  config.real_iterations_cap = 20;
  config.per_trainer_batch = 128;
  return config;
}

TEST(CsvReport, HeaderAndRowsAlign) {
  const Dataset ds = make_community_dataset(3, 64, 8, 21);
  HybridTrainer trainer(ds, cpu_fpga_platform(2), session_trainer_config());
  const std::vector<EpochReport> reports = trainer.train(2);
  const std::string csv = to_csv(reports);

  std::stringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  const std::size_t header_cols = split(line, ',').size();
  EXPECT_EQ(line, csv_header());
  int rows = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(split(line, ',').size(), header_cols);
    ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(CsvReport, RowContainsEpochMetrics) {
  const Dataset ds = make_community_dataset(3, 64, 8, 22);
  HybridTrainer trainer(ds, cpu_fpga_platform(1), session_trainer_config());
  const EpochReport report = trainer.train_epoch();
  const std::string row = csv_row(7, report);
  EXPECT_EQ(row.substr(0, 2), "7,");
  EXPECT_NE(row.find(format_double(report.epoch_time, 6)), std::string::npos);
}

TEST(CsvReport, WriteCsvCreatesFile) {
  const Dataset ds = make_community_dataset(3, 64, 8, 23);
  HybridTrainer trainer(ds, cpu_fpga_platform(1), session_trainer_config());
  const std::string path = "/tmp/hyscale_csv_test.csv";
  write_csv(trainer.train(1), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, csv_header());
  std::remove(path.c_str());
}

TEST(TrainingSession, RunsAndTracksBestAccuracy) {
  const Dataset ds = make_community_dataset(4, 96, 12, 24);
  HybridTrainer trainer(ds, cpu_fpga_platform(2), session_trainer_config());
  SessionConfig config;
  config.max_epochs = 6;
  config.patience = 0;  // no early stop
  TrainingSession session(trainer, config);
  const SessionResult result = session.run();
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_EQ(result.reports.size(), 6u);
  EXPECT_GT(result.best_accuracy, 0.3);
  EXPECT_GE(result.best_epoch, 0);
  EXPECT_FALSE(result.early_stopped);
}

TEST(TrainingSession, EarlyStopsOnPlateau) {
  // A trainer with real compute disabled never improves accuracy, so the
  // session must stop after `patience` epochs.
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);
  HybridTrainerConfig trainer_config = session_trainer_config();
  trainer_config.real_iterations_cap = 0;
  HybridTrainer trainer(ds, cpu_fpga_platform(2), trainer_config);
  SessionConfig config;
  config.max_epochs = 50;
  config.patience = 3;
  TrainingSession session(trainer, config);
  const SessionResult result = session.run();
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LE(result.epochs_run, 10);
}

TEST(TrainingSession, WritesCheckpointAndCsv) {
  const Dataset ds = make_community_dataset(3, 64, 8, 25);
  HybridTrainer trainer(ds, cpu_fpga_platform(1), session_trainer_config());
  SessionConfig config;
  config.max_epochs = 2;
  config.checkpoint_path = "/tmp/hyscale_session_ckpt.bin";
  config.csv_path = "/tmp/hyscale_session.csv";
  TrainingSession session(trainer, config);
  const SessionResult result = session.run();
  EXPECT_GE(result.best_epoch, 0);
  // Checkpoint is loadable into a fresh model of the same architecture.
  GnnModel restored(trainer.model().config());
  load_checkpoint(restored, config.checkpoint_path);
  std::ifstream csv(config.csv_path);
  EXPECT_TRUE(csv.good());
  std::remove(config.checkpoint_path.c_str());
  std::remove(config.csv_path.c_str());
}

TEST(TrainingSession, RejectsBadConfig) {
  const Dataset ds = make_community_dataset(3, 64, 8, 26);
  HybridTrainer trainer(ds, cpu_fpga_platform(1), session_trainer_config());
  SessionConfig bad;
  bad.max_epochs = 0;
  EXPECT_THROW(TrainingSession(trainer, bad), std::invalid_argument);
  bad = SessionConfig{};
  bad.patience = -1;
  EXPECT_THROW(TrainingSession(trainer, bad), std::invalid_argument);
}

}  // namespace
}  // namespace hyscale
