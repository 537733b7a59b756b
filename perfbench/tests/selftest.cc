/**
 * @file
 * Self-tests of the benchmark's own parts: percentiles, span
 * self-time arithmetic, the open-loop schedule, and job digests.
 */

#include <algorithm>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "digest.hh"
#include "reenact.hh"
#include "serve.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

TEST(Percentile, MatchesExactlySortedSamples)
{
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), std::mt19937_64(42));
    EXPECT_EQ(percentile(v, 50), 500.0);
    EXPECT_EQ(percentile(v, 99), 990.0);
    EXPECT_EQ(percentile(v, 99.9), 999.0);
    EXPECT_EQ(percentile(v, 100), 1000.0);
    EXPECT_EQ(percentile(v, 0.01), 1.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, SamplesBeyondP99)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(samplesBeyond(100, 50), 50u);
    EXPECT_EQ(samplesBeyond(7, 100), 0u);
}

namespace {

Span
span(const char *name, std::uint64_t a, std::uint64_t b,
     std::int64_t parent)
{
    Span s;
    s.name = name;
    s.startNs = a;
    s.endNs = b;
    s.parent = parent;
    return s;
}

} // namespace

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    SpanLog log;
    log.add(span("job", 0, 100, -1));         // 0
    log.add(span("a", 10, 40, 0));            // 1
    log.add(span("b", 50, 70, 0));            // 2
    log.add(span("a.inner", 15, 20, 1));      // 3
    log.add(span("a.inner", 30, 45, 1));      // 4: clipped to 40
    const auto self = selfTimesNs(log.spans());
    EXPECT_EQ(self[0], 100u - 30u - 20u);
    EXPECT_EQ(self[1], 30u - 5u - 10u);
    EXPECT_EQ(self[2], 20u);
    EXPECT_EQ(self[3], 5u);
    EXPECT_EQ(self[4], 15u);

    // Layers plus "other" (the root's self time) partition the root,
    // apart from the clipped overhang of span 4.
    const auto t = accumulate({log});
    EXPECT_EQ(t.rootNs, 100u);
    EXPECT_EQ(t.byName.at("job").selfNs, 50u);
    EXPECT_EQ(t.byName.at("a.inner").selfNs, 20u);
    EXPECT_EQ(t.byName.at("a.inner").spans, 2u);
    EXPECT_EQ(t.selfSumNs, 50u + 15u + 20u + 5u + 15u);
}

TEST(Spans, NestedTreeSelfTimesSumToRoot)
{
    SpanLog log;
    log.add(span("job", 0, 1000, -1));
    log.add(span("driver", 100, 900, 0));
    log.add(span("evolve", 150, 400, 1));
    log.add(span("sample", 400, 450, 1));
    log.add(span("cost", 460, 500, 1));
    log.add(span("replay", 900, 1000, 0));
    const auto t = accumulate({log, log});
    EXPECT_EQ(t.selfSumNs, t.rootNs);
    EXPECT_EQ(t.rootNs, 2000u);
    EXPECT_EQ(t.byName.at("driver").selfNs, 2u * (800 - 250 - 50 - 40));
    EXPECT_EQ(t.byName.at("job").selfNs, 2u * 100);
}

TEST(Spans, OverlappingSiblingsBreakThePartition)
{
    SpanLog log;
    log.add(span("job", 0, 100, -1));
    log.add(span("a", 10, 60, 0));
    log.add(span("b", 40, 80, 0));
    const auto t = accumulate({log});
    EXPECT_EQ(t.byName.at("job").selfNs, 30u);
    EXPECT_NE(t.selfSumNs, t.rootNs);
}

TEST(Spans, ScopesNestOnOneLog)
{
    SpanLog log(7);
    {
        Scope outer(&log, "outer");
        Scope inner(&log, "inner");
        inner.setCount(3);
    }
    Scope none(nullptr, "ignored");
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[1].count, 3u);
    EXPECT_LE(log.spans()[0].startNs, log.spans()[1].startNs);
    EXPECT_GE(log.spans()[0].endNs, log.spans()[1].endNs);
}

TEST(Schedule, DeterministicForASeed)
{
    const auto a = makeSchedule(11, {100.0, 300.0}, {600, 600});
    const auto b = makeSchedule(11, {100.0, 300.0}, {600, 600});
    const auto c = makeSchedule(12, {100.0, 300.0}, {600, 600});
    ASSERT_EQ(a.sends.size(), 1200u);
    ASSERT_EQ(a.pool.size(), b.pool.size());
    for (std::size_t i = 0; i < a.sends.size(); ++i) {
        EXPECT_EQ(a.sends[i].atS, b.sends[i].atS);
        EXPECT_EQ(a.sends[i].req, b.sends[i].req);
        EXPECT_EQ(a.sends[i].repeat, b.sends[i].repeat);
    }
    for (std::size_t j = 0; j < a.pool.size(); ++j)
        EXPECT_EQ(a.pool[j].canonicalText(), b.pool[j].canonicalText());
    bool differs = a.pool.size() != c.pool.size();
    for (std::size_t j = 0; !differs && j < a.pool.size(); ++j)
        differs = a.pool[j].canonicalText() != c.pool[j].canonicalText();
    EXPECT_TRUE(differs);
}

TEST(Schedule, RepeatsTargetOldEnoughRequests)
{
    const auto s = makeSchedule(5, {200.0}, {2000});
    std::vector<double> firstAt(s.pool.size(), -1.0);
    std::size_t repeats = 0;
    std::size_t eligible = 0;
    for (const auto &p : s.sends) {
        if (p.atS >= repeatMinAgeS)
            ++eligible;
        if (!p.repeat) {
            firstAt[p.req] = p.atS;
            continue;
        }
        ++repeats;
        ASSERT_GE(firstAt[p.req], 0.0);
        EXPECT_LE(firstAt[p.req], p.atS - repeatMinAgeS);
    }
    const double share = static_cast<double>(repeats) /
        static_cast<double>(eligible);
    EXPECT_NEAR(share, repeatShare, 0.05);
    EXPECT_DOUBLE_EQ(s.sends.back().atS, 1999.0 / 200.0);
}

namespace {

qtenon::service::JobSpec
smallJob(std::uint64_t seed)
{
    qtenon::service::JobSpec s;
    s.name = "selftest";
    s.workload.algorithm = qtenon::vqa::Algorithm::Qaoa;
    s.workload.numQubits = 6;
    s.driver.shots = 100;
    s.driver.iterations = 2;
    s.driver.seed = seed;
    s.driver.recordShotData = false;
    s.deriveSeedFromJobId = false;
    s.hosts = {qtenon::runtime::HostCoreModel::rocket()};
    s.runBaseline = true;
    return s;
}

} // namespace

TEST(Digest, StableAcrossRunsAndSensitiveToOutput)
{
    const auto a = qtenon::service::runJobSpec(smallJob(3), 0);
    const auto b = qtenon::service::runJobSpec(smallJob(3), 9);
    const auto c = qtenon::service::runJobSpec(smallJob(4), 0);
    EXPECT_EQ(jobDigest(a), jobDigest(b));
    EXPECT_NE(jobDigest(a), jobDigest(c));
    EXPECT_EQ(jobDigest(a).size(), 32u);
    auto d = a;
    d.systems.back().rounds.wall += 1;
    EXPECT_NE(jobDigest(a), jobDigest(d));
}

TEST(Digest, ReenactedJobMatchesRunJobSpec)
{
    const auto spec = smallJob(21);
    const auto plain = qtenon::service::runJobSpec(
        spec, 0, qtenon::service::CancelToken::none());
    SpanLog log;
    {
        Scope root(&log, "job");
        const auto traced = reenactJob(
            spec, 0, qtenon::service::CancelToken::none(), &log);
        EXPECT_EQ(jobDigest(plain), jobDigest(traced));
    }
    const auto t = accumulate({log});
    EXPECT_EQ(t.selfSumNs, t.rootNs);
    EXPECT_EQ(t.byName.at("core.setup").spans, 1u);
    EXPECT_EQ(t.byName.at("vqa.driver").spans, 2u);
    EXPECT_EQ(t.byName.at("quantum.evolve").spans, plain.rounds);
    EXPECT_EQ(t.byName.at("quantum.sample").count, plain.rounds * 100);
}
