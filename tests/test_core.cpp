// Tests for the core/ public facade.
#include <gtest/gtest.h>

#include "core/hyscale.hpp"

namespace hyscale {
namespace {

TEST(Core, VersionIsSet) { EXPECT_STREQ(kVersion, "1.0.0"); }

TEST(Core, FacadeTrainsEndToEnd) {
  const Dataset dataset = make_community_dataset(3, 48, 8, 4);
  HybridTrainerConfig config;
  config.fanouts = {4, 4};
  config.real_batch_total = 48;
  config.real_iterations_cap = 2;
  config.per_trainer_batch = 128;
  HyScale system(dataset, cpu_fpga_platform(2), config);

  const auto reports = system.train(2);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    EXPECT_GT(report.epoch_time, 0.0);
    EXPECT_GT(report.iterations, 0);
  }
  EXPECT_GT(system.model().num_parameters(), 0);
  EXPECT_GE(system.runtime().num_trainers(), 3);  // CPU + 2 accelerators
}

TEST(Core, FacadeExposesRuntimeKnobs) {
  const Dataset dataset = make_community_dataset(3, 48, 8, 4);
  HybridTrainerConfig config;
  config.fanouts = {4, 4};
  config.real_iterations_cap = 0;
  HyScale system(dataset, cpu_gpu_platform(1), config);
  WorkloadAssignment w = system.runtime().workload();
  w.accel_batch = 2048;
  system.runtime().set_workload(w);
  EXPECT_EQ(system.runtime().workload().accel_batch, 2048);
  EXPECT_GT(system.runtime().predicted_epoch_time(), 0.0);
}

}  // namespace
}  // namespace hyscale
