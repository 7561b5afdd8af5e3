// Unit tests for src/common: Status/Result, deadlines and cooperative
// cancellation, fault injection, string, math and random utils.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace pcqe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Infeasible("x").IsInfeasible());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::BindError("x").IsBindError());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  Status s = Status::NotFound("table 'foo' not found");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "table 'foo' not found");
  EXPECT_EQ(s.ToString(), "not_found: table 'foo' not found");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::InvalidArgument("bad delta").WithContext("building problem");
  EXPECT_EQ(s.message(), "building problem: bad delta");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, OkCodeIgnoresMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    PCQE_RETURN_NOT_OK(Status::NotFound("inner"));
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto succeeds = []() -> Status {
    PCQE_RETURN_NOT_OK(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_TRUE(succeeds().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, OkStatusNormalizedToInternal) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("x");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    PCQE_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 11);
  EXPECT_TRUE(outer(true).status().IsNotFound());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({}, ", "), "");
  EXPECT_EQ(JoinStrings({"a"}, ", "), "a");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCaseAscii("Manager", "mANAGER"));
  EXPECT_FALSE(EqualsIgnoreCaseAscii("Manager", "Managers"));
  EXPECT_FALSE(EqualsIgnoreCaseAscii("abc", "abd"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimAscii("  x  "), "x");
  EXPECT_EQ(TrimAscii("x"), "x");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii(""), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(0.058), "0.058");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(1234.5), "1234.5");
  EXPECT_EQ(FormatDouble(0.0), "0");
}

TEST(MathUtilTest, ApproxComparisons) {
  EXPECT_TRUE(ApproxEqual(0.1 + 0.2, 0.3));
  EXPECT_FALSE(ApproxEqual(0.1, 0.2));
  EXPECT_TRUE(ApproxGreaterEqual(0.3, 0.3));
  EXPECT_TRUE(ApproxGreaterEqual(0.3 - 1e-12, 0.3));
  EXPECT_FALSE(ApproxGreaterEqual(0.29, 0.3));
}

TEST(MathUtilTest, ClampProbability) {
  EXPECT_EQ(ClampProbability(-0.5), 0.0);
  EXPECT_EQ(ClampProbability(1.5), 1.0);
  EXPECT_EQ(ClampProbability(0.4), 0.4);
}

TEST(MathUtilTest, ProbCombinators) {
  EXPECT_DOUBLE_EQ(ProbAnd(0.3, 0.4), 0.12);
  EXPECT_NEAR(ProbOr(0.3, 0.4), 0.58, 1e-12);
  EXPECT_DOUBLE_EQ(ProbOr(1.0, 0.4), 1.0);
  EXPECT_DOUBLE_EQ(ProbOr(0.0, 0.0), 0.0);
}

TEST(MathUtilTest, StepsBetween) {
  EXPECT_EQ(StepsBetween(0.3, 1.0, 0.1), 7u);
  EXPECT_EQ(StepsBetween(0.0, 1.0, 0.1), 10u);
  EXPECT_EQ(StepsBetween(0.5, 0.5, 0.1), 0u);
  EXPECT_EQ(StepsBetween(0.5, 0.4, 0.1), 0u);
  EXPECT_EQ(StepsBetween(0.0, 1.0, 0.0), 0u);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(0.2, 0.4);
    EXPECT_GE(v, 0.2);
    EXPECT_LT(v, 0.4);
    int64_t n = rng.UniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, ClampedGaussianStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.ClampedGaussian(0.1, 0.5, 0.0, 0.2);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 0.2);
  }
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(11);
  std::vector<size_t> s = rng.Sample(10, 4);
  EXPECT_EQ(s.size(), 4u);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (size_t x : s) EXPECT_LT(x, 10u);
  EXPECT_TRUE(rng.Sample(5, 0).empty());
  EXPECT_EQ(rng.Sample(5, 5).size(), 5u);
}

TEST(RngTest, SampleCoversAllElements) {
  // Over many draws of size 1 from 4 elements, every element must appear.
  Rng rng(13);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Sample(4, 1)[0]);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::multiset<int> ms(v.begin(), v.end());
  EXPECT_EQ(ms, (std::multiset<int>{1, 2, 3, 4, 5}));
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(Deadline::Infinite().infinite());
}

TEST(DeadlineTest, ExpiryAndRemainingTrackTheClock) {
  Deadline past = Deadline::AfterMillis(-10);
  EXPECT_FALSE(past.infinite());
  EXPECT_TRUE(past.Expired());
  EXPECT_LT(past.RemainingSeconds(), 0.0);

  Deadline future = Deadline::AfterSeconds(60.0);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingSeconds(), 50.0);
  EXPECT_LE(future.RemainingSeconds(), 60.0);
}

TEST(DeadlineTest, SoonerPicksTheEarlierAndTreatsInfiniteAsLatest) {
  Deadline soon = Deadline::AfterMillis(10);
  Deadline late = Deadline::AfterSeconds(60.0);
  EXPECT_EQ(Deadline::Sooner(soon, late).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::Sooner(late, soon).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::Sooner(soon, Deadline::Infinite()).time_point(),
            soon.time_point());
  EXPECT_TRUE(
      Deadline::Sooner(Deadline::Infinite(), Deadline::Infinite()).infinite());
}

TEST(CancelTokenTest, RequestObserveReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(SolveControlTest, InertControlNeverStops) {
  SolveControl control;
  EXPECT_FALSE(control.active());
  EXPECT_FALSE(control.StopNow());
  EXPECT_FALSE(control.CheckEvery(1));
  EXPECT_EQ(control.cause(), SolveStop::kComplete);
}

TEST(SolveControlTest, LatchesFirstCauseAndStaysStopped) {
  CancelToken token;
  SolveControl control(Deadline::AfterMillis(-1), &token);
  ASSERT_TRUE(control.active());
  // Cancellation is checked before the (already expired) deadline.
  token.RequestCancel();
  EXPECT_TRUE(control.StopNow());
  EXPECT_EQ(control.cause(), SolveStop::kCancelled);
  token.Reset();
  // The cause is latched: resetting the token does not un-stop the control.
  EXPECT_TRUE(control.StopNow());
  EXPECT_TRUE(control.stopped());
  EXPECT_EQ(control.cause(), SolveStop::kCancelled);
}

TEST(SolveControlTest, ExpiredDeadlineStopsWithDeadlineCause) {
  SolveControl control(Deadline::AfterMillis(-1), nullptr);
  EXPECT_TRUE(control.StopNow());
  EXPECT_EQ(control.cause(), SolveStop::kDeadline);
}

TEST(SolveControlTest, CheckEveryPollsCancelEveryCallAndClockOnStride) {
  CancelToken token;
  SolveControl control(Deadline::AfterSeconds(60.0), &token);
  // Far-future deadline: stride ticks alone never stop the control.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(control.CheckEvery(16));
  // The cancel flag is observed on the very next call, mid-stride.
  token.RequestCancel();
  EXPECT_TRUE(control.CheckEvery(16));
  EXPECT_EQ(control.cause(), SolveStop::kCancelled);
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_F(FaultInjectorTest, DisarmedProbesAreFreeAndClean) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Probe(fault_sites::kEngineEvaluate).ok());
  EXPECT_FALSE(injector.DeadlineFires(fault_sites::kGreedyDeadline));
  EXPECT_EQ(injector.hits(fault_sites::kEngineEvaluate), 0u);
}

TEST_F(FaultInjectorTest, FireWindowIsDeterministic) {
  FaultInjector& injector = FaultInjector::Global();
  FaultInjector::SiteConfig config;
  config.fire_after = 2;
  config.fire_count = 2;
  config.message = "boom";
  injector.Arm(fault_sites::kEngineEvaluate, config);
  EXPECT_TRUE(injector.enabled());

  // Probes 0,1 pass; 2,3 fire; 4+ pass again — and the pattern replays
  // identically after re-arming (re-arming resets the probe counter).
  for (int round = 0; round < 2; ++round) {
    injector.Arm(fault_sites::kEngineEvaluate, config);
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i) {
      Status s = injector.Probe(fault_sites::kEngineEvaluate);
      fired.push_back(!s.ok());
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kInternal);
        EXPECT_NE(s.message().find("boom"), std::string::npos);
      }
    }
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
    EXPECT_EQ(injector.hits(fault_sites::kEngineEvaluate), 6u);
  }
}

TEST_F(FaultInjectorTest, ProbabilityIsSeedDeterministic) {
  FaultInjector& injector = FaultInjector::Global();
  FaultInjector::SiteConfig config;
  config.probability = 0.5;
  config.seed = 42;
  auto run = [&] {
    injector.Arm(fault_sites::kCacheLookup, config);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!injector.Probe(fault_sites::kCacheLookup).ok());
    }
    return fired;
  };
  std::vector<bool> first = run();
  EXPECT_EQ(first, run());  // same seed, same coin flips
  size_t fires = static_cast<size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FaultInjectorTest, DeadlineSitesAreStickyWithUnlimitedFireCount) {
  FaultInjector& injector = FaultInjector::Global();
  FaultInjector::SiteConfig config;  // fire_after = 0, unlimited
  injector.Arm(fault_sites::kGreedyDeadline, config);
  EXPECT_TRUE(injector.DeadlineFires(fault_sites::kGreedyDeadline));
  EXPECT_TRUE(injector.DeadlineFires(fault_sites::kGreedyDeadline));
  // Unarmed sites never fire even while another site is armed.
  EXPECT_FALSE(injector.DeadlineFires(fault_sites::kDncDeadline));
  injector.DisarmAll();
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.DeadlineFires(fault_sites::kGreedyDeadline));
}

TEST_F(FaultInjectorTest, ArmedSiteActivatesSolveControl) {
  FaultInjector::SiteConfig config;
  config.fire_after = 1;  // first poll passes, second fires
  FaultInjector::Global().Arm(fault_sites::kDncDeadline, config);
  SolveControl control(Deadline::Infinite(), nullptr, fault_sites::kDncDeadline);
  ASSERT_TRUE(control.active());
  EXPECT_FALSE(control.StopNow());
  EXPECT_TRUE(control.StopNow());
  EXPECT_EQ(control.cause(), SolveStop::kDeadline);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double t0 = sw.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, t0);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), 0.0);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace pcqe
