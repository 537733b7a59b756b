/**
 * @file
 * System-level golden values for the 64-qubit timing replay.
 *
 * One recorded QAOA trace is replayed on every Fig. 16 software
 * configuration ({FENCE, fine-grained} x {batched, immediate} x
 * {rocket, boom-l}), on the vector ISA, and with bus faults injected
 * (stalls and response errors, which keep every PUT on the event
 * path). Each replay must reproduce, bit for bit, the per-round
 * TimeBreakdowns (folded into a digest), simulated ticks, bus
 * transactions, L2 hits, pulses and SLT hits/misses recorded from
 * the event-per-step replay before private completions existed.
 *
 * To print the current values as table rows:
 *   QTENON_GOLDEN_PRINT=1 ./test_replay_golden
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/qtenon_system.hh"
#include "fault/fault.hh"

using namespace qtenon;

namespace {

/** One replay's observable outcome. */
struct Golden {
    const char *name;
    /** FNV-1a over every field of the install and per-round
     *  TimeBreakdowns, in order. */
    std::uint64_t breakdownDigest;
    std::uint64_t wall;
    std::uint64_t commAcquire;
    std::uint64_t simTicks;
    std::uint64_t busTransactions;
    std::uint64_t l2Hits;
    std::uint64_t pulses;
    std::uint64_t sltHits;
    std::uint64_t sltMisses;
};

/** The configurations, in table order. */
struct Replay {
    const char *name;
    runtime::SoftwareConfig sw;
    runtime::HostCoreModel host;
    bool faults = false;
};

std::vector<Replay>
replays()
{
    std::vector<Replay> out;
    using runtime::SyncPolicy;
    using runtime::TransmissionPolicy;
    const char *names[] = {
        "fence/batched/rocket",   "fence/batched/boom-l",
        "fence/immediate/rocket", "fence/immediate/boom-l",
        "fine/batched/rocket",    "fine/batched/boom-l",
        "fine/immediate/rocket",  "fine/immediate/boom-l"};
    int i = 0;
    for (auto sync : {SyncPolicy::Fence, SyncPolicy::FineGrained}) {
        for (auto tx : {TransmissionPolicy::Batched,
                        TransmissionPolicy::Immediate}) {
            for (const auto &host :
                 {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()}) {
                auto sw = runtime::SoftwareConfig::full();
                sw.sync = sync;
                sw.transmission = tx;
                out.push_back({names[i++], sw, host});
            }
        }
    }
    auto vec = runtime::SoftwareConfig::full();
    vec.vectorIsa = true;
    out.push_back({"isa-vector", vec, runtime::HostCoreModel::rocket()});
    out.push_back({"fault-spec", runtime::SoftwareConfig::full(),
                   runtime::HostCoreModel::rocket(), true});
    return out;
}

/**
 * Recorded from the event-per-step replay (commit 24cfa86); one row
 * per replays() entry: name, digest, wall, commAcquire, simTicks,
 * bus transactions, L2 hits, pulses, SLT hits, SLT misses.
 */
const Golden goldens[] = {
    {"fence/batched/rocket", 0x340210017ae04affull,
     22807207295, 26433000, 22872925295, 1829, 1750, 2304, 3648, 2944},
    {"fence/batched/boom-l", 0x54d0281f03a3e430ull,
     21992593333, 26433000, 22049898333, 1829, 1750, 2304, 3648, 2944},
    {"fence/immediate/rocket", 0x4cbfd9ad30e05eabull,
     22807165295, 178146000, 22872883295, 13628, 13549, 2304, 3648, 2944},
    {"fence/immediate/boom-l", 0x427725c2bc0df411ull,
     21992551333, 178146000, 22049856333, 13628, 13549, 2304, 3648, 2944},
    {"fine/batched/rocket", 0x6b50d8b43f940f75ull,
     20545087406, 3120000, 20610805406, 1829, 1750, 2304, 3648, 2944},
    {"fine/batched/boom-l", 0x0a6a5f819dbeddc5ull,
     20538249904, 3120000, 20595554904, 1829, 1750, 2304, 3648, 2944},
    {"fine/immediate/rocket", 0x8b8a24d5813160a2ull,
     20531415739, 3078000, 20597133739, 13628, 13549, 2304, 3648, 2944},
    {"fine/immediate/boom-l", 0xd9956cc9e980c378ull,
     20529448190, 3078000, 20586753190, 13628, 13549, 2304, 3648, 2944},
    {"isa-vector", 0xcb7dba85dfacffb2ull,
     20580986406, 3120000, 20662697406, 1829, 1750, 2688, 3392, 3200},
    {"fault-spec", 0x20d9e6b4e9df74d9ull,
     20545087406, 3200000, 20610805406, 1829, 1845, 2304, 3648, 2944},
};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
digest(std::uint64_t h, const runtime::TimeBreakdown &bd)
{
    for (sim::Tick v : {bd.quantum, bd.pulseGen, bd.comm, bd.host,
                        bd.hostBusy, bd.wall, bd.commSet,
                        bd.commUpdate, bd.commAcquire})
        h = fnv(h, v);
    return h;
}

vqa::Workload
workload()
{
    vqa::WorkloadConfig wc;
    wc.algorithm = vqa::Algorithm::Qaoa;
    wc.numQubits = 64;
    wc.qaoaLayers = 2;
    return vqa::Workload::build(wc);
}

runtime::VqaTrace
trace(vqa::Workload &w, bool vector_isa)
{
    vqa::DriverConfig dc;
    dc.shots = 500;
    dc.iterations = 3;
    dc.seed = 11;
    dc.recordShotData = false;
    dc.isaVector = vector_isa;
    vqa::VqaDriver driver(dc);
    return driver.run(w);
}

Golden
replay(const Replay &r, const vqa::Workload &w,
       const runtime::VqaTrace &t)
{
    std::unique_ptr<fault::FaultInjector> inj;
    core::QtenonConfig cfg;
    cfg.numQubits = 64;
    cfg.software = r.sw;
    cfg.host = r.host;
    if (r.faults) {
        inj = std::make_unique<fault::FaultInjector>(
            fault::FaultSpec::parse(
                "bus.error=0.05,bus.stall=0.05,bus.stall_ns=20"),
            5);
        cfg.injector = inj.get();
    }
    core::QtenonSystem sys(cfg);
    const sim::Tick shot = sys.shotDuration(w.circuit);
    auto &exec = sys.executor();
    runtime::TimeBreakdown total;
    std::uint64_t h = digest(0xcbf29ce484222325ull,
                             exec.installProgram(t.image));
    for (const auto &round : t.rounds) {
        const auto bd = exec.executeRound(round, t.image, shot);
        h = digest(h, bd);
        total += bd;
    }
    Golden g{};
    g.name = r.name;
    g.breakdownDigest = h;
    g.wall = total.wall;
    g.commAcquire = total.commAcquire;
    g.simTicks = sys.eventQueue().curTick();
    g.busTransactions =
        static_cast<std::uint64_t>(sys.bus().transactions.value());
    g.l2Hits = static_cast<std::uint64_t>(sys.l2().hits.value());
    g.pulses = static_cast<std::uint64_t>(
        sys.controller().pulsesGenerated.value());
    g.sltHits = sys.controller().slt().hits;
    g.sltMisses = sys.controller().slt().misses;
    return g;
}

} // namespace

TEST(ReplayGolden, Fig16ConfigurationsAt64Qubits)
{
    auto w = workload();
    const auto scalar = trace(w, false);
    const auto vector = trace(w, true);
    const auto rs = replays();
    const bool print = std::getenv("QTENON_GOLDEN_PRINT") != nullptr;
    ASSERT_TRUE(print || std::size(goldens) == rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const Golden g =
            replay(rs[i], w, rs[i].sw.vectorIsa ? vector : scalar);
        if (print) {
            std::printf(
                "{\"%s\", 0x%016llxull, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu},\n",
                g.name, (unsigned long long)g.breakdownDigest,
                (unsigned long long)g.wall,
                (unsigned long long)g.commAcquire,
                (unsigned long long)g.simTicks,
                (unsigned long long)g.busTransactions,
                (unsigned long long)g.l2Hits,
                (unsigned long long)g.pulses,
                (unsigned long long)g.sltHits,
                (unsigned long long)g.sltMisses);
            continue;
        }
        const Golden &want = goldens[i];
        SCOPED_TRACE(want.name);
        ASSERT_STREQ(g.name, want.name);
        EXPECT_EQ(g.wall, want.wall);
        EXPECT_EQ(g.commAcquire, want.commAcquire);
        EXPECT_EQ(g.simTicks, want.simTicks);
        EXPECT_EQ(g.busTransactions, want.busTransactions);
        EXPECT_EQ(g.l2Hits, want.l2Hits);
        EXPECT_EQ(g.pulses, want.pulses);
        EXPECT_EQ(g.sltHits, want.sltHits);
        EXPECT_EQ(g.sltMisses, want.sltMisses);
        EXPECT_EQ(g.breakdownDigest, want.breakdownDigest);
    }
}
