#include "qcc.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::controller {

QuantumControllerCache::QuantumControllerCache(sim::EventQueue &eq,
                                               std::string name,
                                               sim::ClockDomain clock,
                                               memory::QccLayout layout)
    : Clocked(eq, std::move(name), clock), _layout(layout)
{
    const auto n_prog =
        std::uint64_t(_layout.numQubits) * _layout.programEntriesPerQubit;
    _program.assign(n_prog, ProgramEntry{});
    _pulse.resize(_layout.numQubits);
    _measure.assign(_layout.measureEntries, 0);
    _regfile.assign(_layout.regfileEntries, 0);
    _programLength.assign(_layout.numQubits, 0);

    stats().registerScalar(&programReads, "program_reads",
                           ".program entries read");
    stats().registerScalar(&programWrites, "program_writes",
                           ".program entries written");
    stats().registerScalar(&pulseWrites, "pulse_writes",
                           ".pulse entries written");
    stats().registerScalar(&measureWrites, "measure_writes",
                           ".measure entries written");
    stats().registerScalar(&regfileWrites, "regfile_writes",
                           ".regfile entries written");
}

std::uint64_t
QuantumControllerCache::programIndex(std::uint64_t qaddr) const
{
    if (_layout.segmentOf(qaddr) != memory::QccSegment::Program)
        sim::panic("QAddress 0x", std::hex, qaddr, " not in .program");
    return qaddr - _layout.programBase();
}

std::uint64_t
QuantumControllerCache::pulseIndex(std::uint64_t qaddr) const
{
    if (_layout.segmentOf(qaddr) != memory::QccSegment::Pulse)
        sim::panic("QAddress 0x", std::hex, qaddr, " not in .pulse");
    return qaddr - _layout.pulseBase();
}

const ProgramEntry &
QuantumControllerCache::readProgram(std::uint64_t qaddr) const
{
    const_cast<QuantumControllerCache *>(this)->programReads++;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.qcc.program_reads",
                                      ".program entries read");
        c.inc();
    }
    return _program[programIndex(qaddr)];
}

void
QuantumControllerCache::writeProgram(std::uint64_t qaddr,
                                     const ProgramEntry &e)
{
    ++programWrites;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.qcc.program_writes",
                                      ".program entries written");
        c.inc();
    }
    _program[programIndex(qaddr)] = e;
}

std::uint32_t
QuantumControllerCache::programLength(std::uint32_t qubit) const
{
    if (qubit >= _layout.numQubits)
        sim::panic("qubit ", qubit, " out of range");
    return _programLength[qubit];
}

void
QuantumControllerCache::setProgramLength(std::uint32_t qubit,
                                         std::uint32_t len)
{
    if (qubit >= _layout.numQubits)
        sim::panic("qubit ", qubit, " out of range");
    if (len > _layout.programEntriesPerQubit) {
        sim::fatal("program for qubit ", qubit, " (", len,
                   " entries) exceeds the ",
                   _layout.programEntriesPerQubit, "-entry chunk");
    }
    _programLength[qubit] = len;
}

const QuantumControllerCache::PulseSlot *
QuantumControllerCache::findPulse(std::uint64_t qaddr) const
{
    const auto idx = pulseIndex(qaddr);
    const auto &chunk = _pulse[idx / _layout.pulseEntriesPerQubit];
    const auto entry = idx % _layout.pulseEntriesPerQubit;
    return entry < chunk.size() ? &chunk[entry] : nullptr;
}

const PulseEntry &
QuantumControllerCache::readPulse(std::uint64_t qaddr) const
{
    static const PulseEntry zero{};
    const auto *slot = findPulse(qaddr);
    return slot ? slot->data : zero;
}

void
QuantumControllerCache::writePulse(std::uint64_t qaddr,
                                   const PulseEntry &p)
{
    ++pulseWrites;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.qcc.pulse_writes",
                                      ".pulse entries written");
        c.inc();
    }
    const auto idx = pulseIndex(qaddr);
    auto &chunk = _pulse[idx / _layout.pulseEntriesPerQubit];
    const auto entry = idx % _layout.pulseEntriesPerQubit;
    if (entry >= chunk.size())
        chunk.resize(entry + 1);
    chunk[entry] = PulseSlot{p, true};
}

bool
QuantumControllerCache::pulseValid(std::uint64_t qaddr) const
{
    const auto *slot = findPulse(qaddr);
    return slot && slot->valid;
}

std::uint64_t
QuantumControllerCache::readMeasure(std::uint32_t entry) const
{
    if (entry >= _measure.size())
        sim::panic(".measure entry ", entry, " out of range");
    return _measure[entry];
}

void
QuantumControllerCache::writeMeasure(std::uint32_t entry,
                                     std::uint64_t value)
{
    if (entry >= _measure.size())
        sim::panic(".measure entry ", entry, " out of range");
    ++measureWrites;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.qcc.measure_writes",
                                      ".measure entries written");
        c.inc();
    }
    _measure[entry] = value;
}

std::uint32_t
QuantumControllerCache::readRegfile(std::uint32_t entry) const
{
    if (entry >= _regfile.size())
        sim::panic(".regfile entry ", entry, " out of range");
    return _regfile[entry];
}

void
QuantumControllerCache::writeRegfile(std::uint32_t entry,
                                     std::uint32_t value)
{
    if (entry >= _regfile.size())
        sim::panic(".regfile entry ", entry, " out of range");
    ++regfileWrites;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.qcc.regfile_writes",
                                      ".regfile entries written");
        c.inc();
    }
    _regfile[entry] = value;
}

bool
QuantumControllerCache::userAccessible(std::uint64_t qaddr) const
{
    return memory::isPublicSegment(_layout.segmentOf(qaddr));
}

sim::Tick
QuantumControllerCache::portAccess(std::uint32_t entries)
{
    const sim::Tick start = std::max(curTick(), _portFree);
    _portFree = start + clockDomain().cyclesToTicks(
        std::max(1u, entries));
    return _portFree;
}

} // namespace qtenon::controller
