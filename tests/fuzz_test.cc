// Tier-1 coverage for the differential testing subsystem
// (src/dflow/testing/): generator determinism, oracle agreement across
// engines/placements/fault schedules, the runtime invariant checker, and
// the catch → shrink → repro → replay loop the fuzz-smoke CI job drives.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dflow/engine/engine.h"
#include "dflow/exec/invariants.h"
#include "dflow/testing/diff_runner.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/testing/repro.h"
#include "dflow/testing/shrink.h"

namespace dflow::testing {
namespace {

// ------------------------------------------------------------- generation

TEST(PlanGenTest, SameSeedRegeneratesTheIdenticalCase) {
  PlanGen gen;
  for (uint64_t seed : {0ull, 3ull, 17ull, 1234ull}) {
    GeneratedCase a = gen.Generate(seed);
    GeneratedCase b = gen.Generate(seed);
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (size_t t = 0; t < a.tables.size(); ++t) {
      EXPECT_EQ(a.tables[t]->num_rows(), b.tables[t]->num_rows());
      EXPECT_EQ(a.tables[t]->EncodedBytes(), b.tables[t]->EncodedBytes());
    }
    EXPECT_EQ(a.is_join, b.is_join);
    EXPECT_EQ(CountStages(a), CountStages(b));
  }
}

TEST(PlanGenTest, DifferentSeedsVaryTheShape) {
  PlanGen gen;
  std::set<size_t> stage_counts;
  size_t joins = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    GeneratedCase c = gen.Generate(seed);
    stage_counts.insert(CountStages(c));
    if (c.is_join) ++joins;
  }
  EXPECT_GE(stage_counts.size(), 3u);  // scan-only through deep pipelines
  EXPECT_GE(joins, 1u);
}

TEST(PlanGenTest, GeneratedPlansPassTheStrictVerifier) {
  PlanGen gen;
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  Engine engine(config);
  ExecOptions strict;
  strict.verify = verify::VerifyMode::kStrict;
  size_t joins = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    GeneratedCase c = gen.Generate(seed);
    for (const auto& table : c.tables) {
      ASSERT_TRUE(engine.catalog().Register(table).ok());
    }
    if (!c.is_join) {
      auto report = engine.Verify(c.query);
      ASSERT_TRUE(report.ok()) << report.status().message();
      EXPECT_EQ(report.ValueOrDie().num_errors(), 0u) << "seed " << seed;
      continue;
    }
    // A strict join lowering verifies both phase graphs up front, under
    // either exchange.
    ++joins;
    for (JoinSpec::Exchange exchange :
         {JoinSpec::Exchange::kNicScatter, JoinSpec::Exchange::kCpuExchange}) {
      JoinSpec join = c.join;
      join.exchange = exchange;
      auto program = engine.LowerJoin(join, strict);
      ASSERT_TRUE(program.ok()) << "seed " << seed << ": "
                                << program.status().message();
      const compile::JoinProgram& p = *program.ValueOrDie();
      for (const compile::JoinProgram::Phase* phase : {&p.build, &p.probe}) {
        EXPECT_EQ(phase->verify.num_errors(), 0u)
            << "seed " << seed << " " << p.variant << ": "
            << phase->verify.ToString();
      }
    }
  }
  EXPECT_GE(joins, 1u);
}

TEST(PlanGenTest, FeedbackSpecVerifiesCleanly) {
  // The executor rejects cyclic graphs, so feedback shapes are exercised
  // through the static verifier: declared feedback + an unbounded-credit
  // hop must produce zero errors in strict mode.
  Engine engine;
  verify::VerifyReport report =
      engine.VerifyGraphSpec(PlanGen::FeedbackSpec());
  EXPECT_EQ(report.num_errors(), 0u) << report.ToString();
}

// ------------------------------------------------------------ the oracle

TEST(DiffRunnerTest, EnginesAgreeAcrossSeedsPlacementsAndFaults) {
  PlanGen gen;
  DiffRunner runner;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    GeneratedCase c = gen.Generate(seed);
    auto result = runner.Run(c);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_FALSE(result.ValueOrDie().diverged)
        << c.name << ": " << result.ValueOrDie().divergence;
    EXPECT_GE(result.ValueOrDie().lanes.size(), 3u);
  }
}

TEST(DiffRunnerTest, RunsAreByteIdentical) {
  PlanGen gen;
  DiffRunner runner;
  GeneratedCase c = gen.Generate(5);
  DiffResult a = runner.Run(c).ValueOrDie();
  DiffResult b = runner.Run(c).ValueOrDie();
  ASSERT_EQ(a.lanes.size(), b.lanes.size());
  for (size_t i = 0; i < a.lanes.size(); ++i) {
    EXPECT_EQ(a.lanes[i].lane, b.lanes[i].lane);
    EXPECT_EQ(a.lanes[i].fingerprint, b.lanes[i].fingerprint);
    EXPECT_EQ(a.lanes[i].sim_ns, b.lanes[i].sim_ns);  // virtual time too
  }
}

// --------------------------------------------- catch -> shrink -> replay

// Finds a seed whose plan has a filter (the injected bug lives in the
// filter operator) and whose oracle flags it.
GeneratedCase FindBuggyCase(const PlanGen& gen, const DiffRunner& runner) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    GeneratedCase c = gen.Generate(seed);
    if (c.is_join || c.filter_conjuncts.empty()) continue;
    auto result = runner.Run(c);
    if (result.ok() && result.ValueOrDie().diverged) return c;
  }
  ADD_FAILURE() << "no seed in [0,32) produced a divergent filter case";
  return gen.Generate(0);
}

TEST(ShrinkerTest, InjectedBugIsCaughtShrunkAndReplayable) {
  PlanGen gen;
  DiffOptions options;
  options.inject_bug = BugKind::kFilterDropFirstRow;
  DiffRunner runner(options);

  GeneratedCase buggy = FindBuggyCase(gen, runner);

  ShrinkResult shrunk = Shrink(buggy, [&](const GeneratedCase& candidate) {
    auto r = runner.Run(candidate);
    return r.ok() && r.ValueOrDie().diverged;
  });
  // The minimal divergent plan for a filter bug is scan -> filter -> sink.
  EXPECT_LE(CountStages(shrunk.minimized), 3u);
  EXPECT_FALSE(shrunk.minimized.filter_conjuncts.empty());

  DiffResult final_diff = runner.Run(shrunk.minimized).ValueOrDie();
  ASSERT_TRUE(final_diff.diverged);

  Repro repro;
  repro.gen = gen.options();
  repro.case_seed = buggy.seed;
  repro.diff = options;
  repro.steps = shrunk.applied_steps;
  repro.divergence = final_diff.divergence;
  repro.expected_fingerprint = final_diff.reference_fingerprint;
  repro.num_stages = CountStages(shrunk.minimized);

  // JSON round-trip is exact.
  const std::string json = ReproToJson(repro);
  Repro parsed = ReproFromJson(json).ValueOrDie();
  EXPECT_EQ(ReproToJson(parsed), json);
  EXPECT_EQ(parsed.case_seed, repro.case_seed);
  EXPECT_EQ(parsed.steps, repro.steps);
  EXPECT_EQ(parsed.diff.inject_bug, BugKind::kFilterDropFirstRow);

  // Replay regenerates from the seed and reproduces the same divergence
  // with the same reference fingerprint.
  ReplayOutcome outcome = ReplayRepro(parsed).ValueOrDie();
  EXPECT_TRUE(outcome.reproduced);
  EXPECT_EQ(outcome.diff.reference_fingerprint, repro.expected_fingerprint);
  EXPECT_EQ(CountStages(outcome.minimized), repro.num_stages);
}

TEST(ShrinkerTest, StepsValidateTheirPreconditions) {
  PlanGen gen;
  GeneratedCase c = gen.Generate(0);
  EXPECT_FALSE(ApplyShrinkStep(c, "no_such_step").ok());
  EXPECT_FALSE(ApplyShrinkStep(c, "drop_column:t_case_0:id").ok());
  EXPECT_FALSE(ApplyShrinkStep(c, "halve_rows:no_such_table").ok());
  // Every enumerated step must apply cleanly to the case it was offered on.
  for (const std::string& step : EnumerateShrinkSteps(c)) {
    EXPECT_TRUE(ApplyShrinkStep(c, step).ok()) << step;
  }
}

TEST(ReproTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ReproFromJson("").ok());
  EXPECT_FALSE(ReproFromJson("[]").ok());
  EXPECT_FALSE(ReproFromJson("{\"schema\": \"dflow.repro.v2\"}").ok());
  EXPECT_FALSE(ReproFromJson("{\"schema\": \"dflow.repro.v1\"}").ok());
}

// --------------------------------------------------- invariant checker

#ifndef DFLOW_INVARIANTS_DISABLED

TEST(InvariantTest, ChecksRunDuringExecution) {
  const uint64_t before = invariants::checks_run();
  PlanGen gen;
  DiffRunner runner;
  (void)runner.Run(gen.Generate(2)).ValueOrDie();
  // Tuple-conservation and time-monotonicity checks fire on every event
  // boundary; even one small differential run trips them hundreds of times.
  EXPECT_GT(invariants::checks_run(), before + 100);
}

#if GTEST_HAS_DEATH_TEST
TEST(InvariantTest, ViolationAborts) {
  EXPECT_DEATH(
      { DFLOW_INVARIANT(1 == 2, std::string("forced failure")); },
      "DFLOW_INVARIANT failed");
}
#endif  // GTEST_HAS_DEATH_TEST

#endif  // DFLOW_INVARIANTS_DISABLED

}  // namespace
}  // namespace dflow::testing
