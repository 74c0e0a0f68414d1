#include <gtest/gtest.h>

#include <set>

#include "dflow/common/hash.h"
#include "dflow/common/lock_rank.h"
#include "dflow/common/random.h"
#include "dflow/common/result.h"
#include "dflow/common/status.h"
#include "dflow/common/string_util.h"

namespace dflow {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad column");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad column");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  DFLOW_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_TRUE(UsesReturnNotOk(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  DFLOW_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 21);

  Result<int> err = ParsePositive(-3);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsOutOfRange());
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoublePositive(4).ValueOrDie(), 8);
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, NextInt64Bounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextStringHasRequestedLength) {
  Random rng(9);
  EXPECT_EQ(rng.NextString(12).size(), 12u);
  EXPECT_EQ(rng.NextString(0).size(), 0u);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator zipf(1000, 0.99, 1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallKeys) {
  ZipfGenerator zipf(1000, 0.99, 1);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) ++hot;
  }
  // With theta=0.99 the top-10 keys take a large share of the mass; uniform
  // would give ~1%.
  EXPECT_GT(hot, n / 5);
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator zipf(100, 0.0, 3);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf.Next()]++;
  for (int c : counts) {
    EXPECT_GT(c, n / 100 / 3);
    EXPECT_LT(c, n / 100 * 3);
  }
}

TEST(HashTest, DistinctKeysRarelyCollide) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(HashInt64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, StringHashDependsOnContent) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

TEST(HashTest, CombineOrderMatters) {
  uint64_t a = HashCombine(HashInt64(1), 2);
  uint64_t b = HashCombine(HashInt64(2), 1);
  EXPECT_NE(a, b);
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(StringUtilTest, FormatNanos) {
  EXPECT_EQ(FormatNanos(100), "100 ns");
  EXPECT_EQ(FormatNanos(1500), "1.500 us");
  EXPECT_EQ(FormatNanos(2500000), "2.500 ms");
}

struct LikeCase {
  const char* value;
  const char* pattern;
  bool expected;
};

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.value, c.pattern), c.expected)
      << "'" << c.value << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "h__lo", true},
        LikeCase{"hello", "", false}, LikeCase{"", "", true},
        LikeCase{"", "%", true}, LikeCase{"hello", "%", true},
        LikeCase{"hello", "hell", false}, LikeCase{"hello", "hello_", false},
        LikeCase{"hello", "%x%", false}, LikeCase{"aaa", "a%a", true},
        LikeCase{"ab", "a%b%c", false}, LikeCase{"abc", "%%c", true},
        LikeCase{"special offer", "%cial off%", true},
        LikeCase{"abcabc", "%abc", true}, LikeCase{"abcabc", "abc%abc", true},
        LikeCase{"abcaabc", "abc%abc", true},
        // A '%' or '_' in the value is an ordinary character.
        LikeCase{"%_", "%", true}, LikeCase{"a%b", "a%", true},
        LikeCase{"50%", "%0%", true}, LikeCase{"%x", "%%", true},
        LikeCase{"_", "%_", true}));

// ------------------------------------------------------- lock-rank checker

#ifndef DFLOW_INVARIANTS_DISABLED

TEST(LockRankTest, IncreasingRankAcquisitionIsAllowed) {
  RankedMutex low(LockRank::kStealDeque);
  RankedMutex high(LockRank::kJoinPartition);
  RankedMutexLock outer(&low);
  RankedMutexLock inner(&high);  // kStealDeque < kJoinPartition: legal
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  // The runtime half of the lock-order discipline (the static half is
  // tools/lint_lock_order.py): acquiring a rank <= the highest held rank
  // must abort with a message naming both locks.
  RankedMutex high(LockRank::kJoinPartition);
  RankedMutex low(LockRank::kStealDeque);
  EXPECT_DEATH(
      {
        RankedMutexLock outer(&high);
        RankedMutexLock inner(&low);  // lock-order-ok: must die
      },
      "lock-order violation");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  // Equal ranks are also refused: the order is strictly increasing, so two
  // kJoinPartition locks can never nest (rules out self-deadlock by design).
  RankedMutex a(LockRank::kJoinPartition);
  RankedMutex b(LockRank::kJoinPartition);
  EXPECT_DEATH(
      {
        RankedMutexLock outer(&a);
        RankedMutexLock inner(&b);  // lock-order-ok: must die
      },
      "lock-order violation");
}

#endif  // DFLOW_INVARIANTS_DISABLED

}  // namespace
}  // namespace dflow
