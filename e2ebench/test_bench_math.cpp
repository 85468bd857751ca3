// Tests of the benchmark's own arithmetic (bench_math.h).

#include <gtest/gtest.h>

#include <limits>

#include "bench_math.h"

namespace {

using namespace e2ebench;

TEST(BenchMath, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(BenchMath, RatioOfZeroBaseIsZero)
{
    EXPECT_EQ(ratio(3.0, 2.0), 1.5);
    EXPECT_EQ(ratio(3.0, 0.0), 0.0);
}

TEST(BenchMath, SelfTimeSubtractsDirectChildren)
{
    // step [0,100) holds pair [10,50) and bond [60,70); pair holds a
    // nested span [20,30) that must come out of pair, not out of step.
    std::vector<Span> spans = {
        {0, -1, 0, 100}, {1, 0, 10, 50}, {3, 1, 20, 30}, {2, 0, 60, 70}};
    const std::vector<double> self = selfTimeByName(spans, 4);
    EXPECT_EQ(self[0], 50.0);
    EXPECT_EQ(self[1], 30.0);
    EXPECT_EQ(self[2], 10.0);
    EXPECT_EQ(self[3], 10.0);
}

TEST(BenchMath, SelfTimeSumsOverSpansAndClipsOverrun)
{
    // Two roots of one name sum; a child overrunning its parent only
    // covers the overlap.
    std::vector<Span> spans = {
        {0, -1, 0, 10}, {0, -1, 20, 30}, {1, 1, 25, 40}};
    const std::vector<double> self = selfTimeByName(spans, 2);
    EXPECT_EQ(self[0], 15.0);
    EXPECT_EQ(self[1], 15.0);
}

TEST(BenchMath, StepSplitSeparatesRebuildSteps)
{
    const std::vector<double> seconds = {1.0, 9.0, 2.0, 3.0, 11.0, 4.0};
    const std::vector<std::uint8_t> rebuilt = {0, 1, 0, 0, 1, 0};
    const StepSplit split = splitSteps(seconds, rebuilt);
    EXPECT_EQ(split.plainSteps, 4);
    EXPECT_EQ(split.rebuildSteps, 2);
    EXPECT_EQ(split.plainP50, 2.5);
    EXPECT_EQ(split.rebuildP50, 10.0);
}

TEST(BenchMath, StepSplitWithoutRebuilds)
{
    const StepSplit split = splitSteps({1.0, 2.0, 3.0}, {0, 0, 0});
    EXPECT_EQ(split.plainP50, 2.0);
    EXPECT_EQ(split.rebuildSteps, 0);
    EXPECT_EQ(split.rebuildP50, 0.0);
}

TEST(BenchMath, CounterDeltasAccumulateAcrossBlocks)
{
    std::array<std::uint64_t, 2> total{};
    accumulateDeltas(total, {10, 100}, {15, 100});
    accumulateDeltas(total, {40, 200}, {43, 260}); // another config ran between
    EXPECT_EQ(total[0], 8u);
    EXPECT_EQ(total[1], 60u);
    // useful / attempted, as neigh.accept_ratio takes it
    EXPECT_DOUBLE_EQ(ratio(static_cast<double>(total[0]),
                           static_cast<double>(total[1])),
                     8.0 / 60.0);
}

TEST(BenchMath, RelativeDrift)
{
    EXPECT_NEAR(relativeDrift(-2.0, -2.01), 0.005, 1e-15);
    EXPECT_DOUBLE_EQ(relativeDrift(0.0, 0.25), 0.25);
}

TEST(BenchMath, SameBitsIsBitwise)
{
    EXPECT_TRUE(sameBits(1.5, 1.5));
    EXPECT_FALSE(sameBits(0.0, -0.0));
    EXPECT_FALSE(sameBits(1.0, std::nextafter(1.0, 2.0)));
}

TEST(BenchMath, ChecksCountFailuresAgainstAttempts)
{
    Checks checks;
    EXPECT_TRUE(checks.expect(true, "ok"));
    EXPECT_TRUE(checks.correct());
    EXPECT_FALSE(checks.expect(false, "bad"));
    EXPECT_EQ(checks.attempted(), 2);
    EXPECT_EQ(checks.failed(), 1);
    EXPECT_FALSE(checks.correct());
    ASSERT_EQ(checks.failures().size(), 1u);
    EXPECT_EQ(checks.failures()[0], "bad");
}

TEST(BenchMath, InjectedNaNEnergyFails)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Checks checks;
    EXPECT_FALSE(checks.expectFinite(nan, "energy"));
    EXPECT_FALSE(checks.expectFinite(
        std::numeric_limits<double>::infinity(), "energy"));
    // A NaN final energy must fail the drift check too, even though
    // every comparison with NaN is false.
    EXPECT_FALSE(checks.expectDriftBelow(-1.0, nan, 5e-3, "drift"));
    EXPECT_EQ(checks.failed(), 3);
    EXPECT_EQ(checks.attempted(), 3);
}

TEST(BenchMath, InjectedDriftFails)
{
    Checks checks;
    EXPECT_TRUE(checks.expectDriftBelow(-100.0, -100.4, 5e-3, "small"));
    EXPECT_FALSE(checks.expectDriftBelow(-100.0, -100.6, 5e-3, "large"));
    EXPECT_EQ(checks.failed(), 1);
}

} // namespace
