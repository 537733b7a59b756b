#include "digest.hh"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hash.hh"
#include "service/json.hh"

namespace perfbench {

using namespace qtenon;

namespace {

/** Appends fields as text; doubles by their exact bit patterns. */
class Canon
{
  public:
    Canon &
    u(std::uint64_t v)
    {
        _s += std::to_string(v);
        _s += ';';
        return *this;
    }

    Canon &
    d(double v)
    {
        return u(std::bit_cast<std::uint64_t>(v));
    }

    Canon &
    s(const std::string &v)
    {
        _s += v;
        _s += ';';
        return *this;
    }

    Canon &
    breakdown(const runtime::TimeBreakdown &b)
    {
        return u(b.quantum).u(b.pulseGen).u(b.comm).u(b.host)
            .u(b.hostBusy).u(b.wall).u(b.commSet).u(b.commUpdate)
            .u(b.commAcquire);
    }

    const std::string &str() const { return _s; }

  private:
    std::string _s;
};

} // namespace

std::string
jobDigest(const service::JobResult &r)
{
    Canon c;
    c.u(r.numQubits).s(r.algorithm).s(r.optimizer).s(r.backend)
        .u(r.rounds).u(r.shotDuration).u(r.simTicks).d(r.finalCost);
    c.u(r.costHistory.size());
    for (double v : r.costHistory)
        c.d(v);
    c.u(r.systems.size());
    for (const auto &sys : r.systems) {
        c.s(sys.label).breakdown(sys.setup).breakdown(sys.rounds)
            .breakdown(sys.total).d(sys.busTransactions)
            .d(sys.pulsesGenerated).u(sys.sltHits).u(sys.sltMisses)
            .u(sys.simTicks);
    }
    return core::fnv1a128(c.str()).hex();
}

std::string
bytesDigest(const std::string &bytes)
{
    return core::fnv1a128(bytes).hex();
}

ReferenceSet
loadReferences(const std::string &path)
{
    ReferenceSet refs;
    std::ifstream in(path);
    if (!in)
        return refs;
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = service::json::Value::parse(ss.str());
    for (const auto &[name, v] : doc.asObject()) {
        Reference ref;
        ref.seed = v.at("seed").asUint();
        for (const auto &d : v.at("digests").asArray())
            ref.digests.push_back(d.asString());
        refs[name] = std::move(ref);
    }
    return refs;
}

void
saveReferences(const std::string &path, const ReferenceSet &refs)
{
    auto doc = service::json::Value::object();
    for (const auto &[name, ref] : refs) {
        auto v = service::json::Value::object();
        v.set("seed", ref.seed);
        auto arr = service::json::Value::array();
        for (const auto &d : ref.digests)
            arr.asArray().emplace_back(d);
        v.set("digests", std::move(arr));
        doc.set(name, std::move(v));
    }
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << doc.dump(2) << "\n";
}

} // namespace perfbench
