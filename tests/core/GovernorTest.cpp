//===- tests/core/GovernorTest.cpp - Resource governance tests -------------===//
//
// Part of egglog-cpp. The ResourceGovernor turns timeouts, node ceilings,
// memory ceilings, and cooperative cancellation into bounded-latency hard
// stops: the tripped command fails with a limit/cancelled error and rolls
// back exactly, and the database keeps working afterwards.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"
#include "support/Governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

using namespace egglog;

namespace {

struct StateFingerprint {
  uint64_t ContentHash;
  size_t LiveTuples;
  uint64_t Unions;
  size_t Functions;
  size_t Sorts;
  size_t Rules;
  size_t Rulesets;

  bool operator==(const StateFingerprint &) const = default;
};

StateFingerprint fingerprint(Frontend &F) {
  return StateFingerprint{F.graph().liveContentHash(),
                          F.graph().liveTupleCount(),
                          F.graph().unionFind().unionCount(),
                          F.graph().numFunctions(),
                          F.graph().sorts().size(),
                          F.engine().numRules(),
                          F.engine().numRulesets()};
}

/// An explosive workload: associativity + commutativity over a long Add
/// chain saturates far beyond any limit a test would wait for.
void setupExplosive(Frontend &F, int ChainLength = 14) {
  std::string Seed = "(Num 0)";
  for (int I = 1; I <= ChainLength; ++I)
    Seed = "(Add (Num " + std::to_string(I) + ") " + Seed + ")";
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math) (Mul Math Math))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Add a b) c) (Add a (Add b c)))
  )")) << F.error();
  ASSERT_TRUE(F.execute("(define e " + Seed + ")")) << F.error();
}

} // namespace

TEST(GovernorTest, VerdictsAndCheckpointInterval) {
  ResourceGovernor Gov;
  EXPECT_FALSE(Gov.anyLimitSet());
  EXPECT_EQ(Gov.poll(1u << 30, 1u << 30), GovernorVerdict::Ok);

  Gov.setMaxLive(10);
  EXPECT_TRUE(Gov.anyLimitSet());
  EXPECT_EQ(Gov.poll(10, 0), GovernorVerdict::Ok);
  EXPECT_EQ(Gov.poll(11, 0), GovernorVerdict::NodeLimit);

  Gov.setMaxBytes(1000);
  EXPECT_EQ(Gov.poll(0, 1001), GovernorVerdict::MemoryLimit);

  // Cancellation is sticky until the next arm().
  Gov.requestCancel();
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Cancelled);
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Cancelled);
  Gov.arm();
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Ok);

  // An already-expired deadline trips immediately after arm().
  Gov.setTimeout(1e-9);
  Gov.arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Timeout);

  Gov.setCheckpointInterval(0);
  EXPECT_EQ(Gov.checkpointInterval(), 1u);
  Gov.setCheckpointInterval(64);
  EXPECT_EQ(Gov.checkpointInterval(), 64u);
}

TEST(GovernorTest, TimeoutIsAHardBoundedStopThatRollsBack) {
  Frontend F;
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :timeout 0.05)")) << F.error();
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(F.execute("(run 100)"));
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("timeout"), std::string::npos) << F.error();
  // Checkpoints bound the stop latency far below a full saturation run
  // (which would take minutes); 1s leaves slack for slow CI machines.
  EXPECT_LT(Elapsed, 1.0);
  EXPECT_EQ(fingerprint(F), Before);

  // Disabling the budget lets work proceed again.
  ASSERT_TRUE(F.execute("(set-option :timeout 0)")) << F.error();
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, NodeCeilingTripsAndRollsBack) {
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :max-nodes 200)")) << F.error();
  EXPECT_FALSE(F.execute("(run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("live tuple ceiling"), std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);

  ASSERT_TRUE(F.execute("(set-option :max-nodes 0)")) << F.error();
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, MemoryCeilingTripsAndRollsBack) {
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  setupExplosive(F, /*ChainLength=*/16);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :max-memory-mb 1)")) << F.error();
  EXPECT_FALSE(F.execute("(run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("memory ceiling"), std::string::npos) << F.error();
  EXPECT_EQ(fingerprint(F), Before);
}

/// A join whose matches dwarf what it derives: every pair of the 300 `r`
/// facts matches (90,000 two-variable matches, ~1.4 MB of arena) and the
/// whole iteration adds a single tuple.
void setupMatchHeavy(Frontend &F, int Threads) {
  ASSERT_TRUE(F.execute("(set-option :threads " + std::to_string(Threads) +
                        ")"))
      << F.error();
  ASSERT_TRUE(F.execute(R"(
    (relation r (i64))
    (relation s (i64))
    (rule ((r x) (r y)) ((s 0)))
  )")) << F.error();
  std::string Facts;
  for (int I = 0; I < 300; ++I)
    Facts += "(r " + std::to_string(I) + ")\n";
  ASSERT_TRUE(F.execute(Facts)) << F.error();
}

TEST(GovernorTest, MemoryCeilingCountsBufferedMatches) {
  for (int Threads : {1, 4}) {
    // Control: unlimited, the run succeeds and the tables it leaves behind
    // sit far under the ceiling used below.
    Frontend Control;
    setupMatchHeavy(Control, Threads);
    size_t Ceiling = Control.graph().approxBytes() + (size_t(256) << 10);
    ASSERT_TRUE(Control.execute("(run 1)")) << Control.error();
    EXPECT_LT(Control.graph().approxBytes(), Ceiling);

    // Only the buffered match arenas can cross that ceiling.
    Frontend F;
    setupMatchHeavy(F, Threads);
    StateFingerprint Before = fingerprint(F);
    F.graph().governor().setMaxBytes(Ceiling);
    EXPECT_FALSE(F.execute("(run 1)")) << "threads " << Threads;
    EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
    EXPECT_NE(F.error().find("memory ceiling"), std::string::npos)
        << F.error();
    EXPECT_EQ(fingerprint(F), Before);
  }
}

TEST(GovernorTest, CancelFromAnotherThreadRollsBack) {
  Frontend F;
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  std::thread Canceller([&F] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    F.graph().governor().requestCancel();
  });
  EXPECT_FALSE(F.execute("(run 1000)"));
  Canceller.join();
  EXPECT_EQ(F.lastError().Kind, ErrKind::Cancelled);
  EXPECT_EQ(fingerprint(F), Before);

  // arm() at the next command clears the stale cancel request.
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, LimitsApplyToExtraction) {
  // The extract scan honours checkpoints too: a cancel requested before
  // the index is (re)built stops the scan and fails the command cleanly.
  Frontend F;
  setupExplosive(F, /*ChainLength=*/10);
  ASSERT_TRUE(F.execute("(run 2)")) << F.error();
  StateFingerprint Before = fingerprint(F);

  F.graph().governor().setCheckpointInterval(1);
  std::thread Canceller([&F] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    F.graph().governor().requestCancel();
  });
  // A long saturation run whose trailing extract would need the index; the
  // cancel lands either during the run or during extraction — both must
  // roll back to the same fingerprint.
  bool Ok = F.execute("(run 50) (extract e)");
  Canceller.join();
  if (!Ok) {
    EXPECT_EQ(F.lastError().Kind, ErrKind::Cancelled);
    EXPECT_EQ(fingerprint(F), Before);
  }
  EXPECT_TRUE(F.execute("(extract e)")) << F.error();
}
