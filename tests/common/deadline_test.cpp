// The cancellation primitive behind bounded analysis: budgets must trip
// exactly when exhausted, and unlimited deadlines must cost (nearly)
// nothing and never throw.
#include "common/deadline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace gpuperf {
namespace {

TEST(Deadline, DefaultIsUnlimitedAndNeverThrows) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.timed());
  EXPECT_FALSE(deadline.expired());
  for (int i = 0; i < 100000; ++i) deadline.charge("test");
  deadline.check("test");
  // Unlimited deadlines skip step accounting entirely.
  EXPECT_EQ(deadline.steps_charged(), 0u);
  EXPECT_GT(deadline.remaining_ms(), 1'000'000'000LL);
}

TEST(Deadline, StepBudgetTripsExactlyAtTheBound) {
  Deadline deadline;
  deadline.with_step_budget(10);
  EXPECT_FALSE(deadline.unlimited());
  for (int i = 0; i < 10; ++i) deadline.charge("unit");
  EXPECT_EQ(deadline.steps_charged(), 10u);
  EXPECT_FALSE(deadline.expired());
  EXPECT_THROW(deadline.charge("unit"), AnalysisTimeout);
  EXPECT_TRUE(deadline.expired());
}

TEST(Deadline, BulkChargeCountsEveryUnit) {
  Deadline deadline;
  deadline.with_step_budget(100);
  deadline.charge("bulk", 60);
  deadline.charge("bulk", 40);
  EXPECT_THROW(deadline.charge("bulk", 1), AnalysisTimeout);
}

TEST(Deadline, WallClockExpiryIsDetected) {
  const Deadline deadline = Deadline::after_ms(1);
  EXPECT_TRUE(deadline.timed());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_ms(), 0);
  EXPECT_THROW(deadline.check("wall"), AnalysisTimeout);
  // charge() polls the clock every few thousand steps, so a hot loop
  // still stops within a bounded number of charges.
  const Deadline fresh = Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) fresh.charge("loop");
      },
      AnalysisTimeout);
}

TEST(Deadline, TimeoutMessageNamesTheSite) {
  Deadline deadline;
  deadline.with_step_budget(0);
  try {
    deadline.charge("my_kernel");
    FAIL() << "expected AnalysisTimeout";
  } catch (const AnalysisTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("my_kernel"), std::string::npos);
  }
}

TEST(Deadline, RemainingMsClampsAtZero) {
  const Deadline deadline = Deadline::after_ms(50);
  EXPECT_GT(deadline.remaining_ms(), 0);
  EXPECT_LE(deadline.remaining_ms(), 50);
}

}  // namespace
}  // namespace gpuperf
