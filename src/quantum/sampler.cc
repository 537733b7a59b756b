#include "sampler.hh"

#include <cmath>

#include "sim/logging.hh"

namespace qtenon::quantum {

StateVector &
StatevectorSampler::prepare(const QuantumCircuit &c)
{
    if (!_sv || _sv->numQubits() != c.numQubits())
        _sv = std::make_unique<StateVector>(c.numQubits(), _maxQubits,
                                            _kernel);
    else
        _sv->reset();
    _sv->applyCircuit(c);
    return *_sv;
}

std::vector<std::uint64_t>
StatevectorSampler::sample(const QuantumCircuit &c, std::size_t shots,
                           sim::Rng &rng)
{
    if (c.numQubits() > 64)
        sim::fatal("64-bit sample words cap the register at 64 qubits");
    return prepare(c).sample(shots, rng);
}

double
StatevectorSampler::marginalOne(const QuantumCircuit &c, std::uint32_t q)
{
    return prepare(c).marginalOne(q);
}

namespace {

/** Rotate a Bloch vector by @p angle around the given axis. */
void
rotateBloch(std::array<double, 3> &b, int axis, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    double x = b[0], y = b[1], z = b[2];
    switch (axis) {
      case 0: // X axis
        b[1] = c * y - s * z;
        b[2] = s * y + c * z;
        break;
      case 1: // Y axis
        b[0] = c * x + s * z;
        b[2] = -s * x + c * z;
        break;
      case 2: // Z axis
        b[0] = c * x - s * y;
        b[1] = s * x + c * y;
        break;
      default:
        sim::panic("bad Bloch axis");
    }
}

/** Shrink the transverse components, modelling lost coherence. */
void
dephase(std::array<double, 3> &b, double factor)
{
    b[0] *= factor;
    b[1] *= factor;
}

} // namespace

namespace {

/** H on a Bloch vector: (x, y, z) -> (z, -y, x). */
void
hadamardBloch(std::array<double, 3> &b)
{
    std::array<double, 3> nb{b[2], -b[1], b[0]};
    b = nb;
}

/**
 * Exact single-qubit reduced-state update for RZZ(angle) against a
 * product-state partner with <Z> = z_partner: the transverse
 * component (x - iy) is multiplied by cos(angle) - i sin(angle) *
 * z_partner, which both rotates it and shrinks it (the shrink is the
 * physically correct loss of local coherence to entanglement).
 */
void
rzzReduced(std::array<double, 3> &b, double z_partner, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle) * z_partner;
    const double x = b[0];
    const double y = b[1];
    b[0] = c * x - s * y;
    b[1] = c * y + s * x;
}

} // namespace

std::vector<std::array<double, 3>>
MeanFieldSampler::evolve(const QuantumCircuit &c) const
{
    // Bloch convention: |0> = (0, 0, 1); P(read 1) = (1 - z) / 2.
    std::vector<std::array<double, 3>> bloch(
        c.numQubits(), std::array<double, 3>{0.0, 0.0, 1.0});

    // CZ = (global phase) RZZ(-pi/2) . RZ(pi/2) x RZ(pi/2).
    auto apply_cz = [&](std::array<double, 3> &a,
                        std::array<double, 3> &b) {
        const double za = a[2];
        const double zb = b[2];
        rzzReduced(a, zb, -M_PI / 2.0);
        rzzReduced(b, za, -M_PI / 2.0);
        rotateBloch(a, 2, M_PI / 2.0);
        rotateBloch(b, 2, M_PI / 2.0);
        dephase(a, _dephasing);
        dephase(b, _dephasing);
    };

    for (const auto &g : c.gates()) {
        const double angle = c.resolveAngle(g);
        auto &b0 = bloch[g.qubit0];
        switch (g.type) {
          case GateType::I:
          case GateType::Measure:
            break;
          case GateType::X:
            rotateBloch(b0, 0, M_PI);
            break;
          case GateType::Y:
            rotateBloch(b0, 1, M_PI);
            break;
          case GateType::Z:
            rotateBloch(b0, 2, M_PI);
            break;
          case GateType::H:
            hadamardBloch(b0);
            break;
          case GateType::S:
            rotateBloch(b0, 2, M_PI / 2.0);
            break;
          case GateType::Sdg:
            rotateBloch(b0, 2, -M_PI / 2.0);
            break;
          case GateType::T:
            rotateBloch(b0, 2, M_PI / 4.0);
            break;
          case GateType::RX:
            rotateBloch(b0, 0, angle);
            break;
          case GateType::RY:
            rotateBloch(b0, 1, angle);
            break;
          case GateType::RZ:
            rotateBloch(b0, 2, angle);
            break;
          case GateType::RZZ: {
            auto &b1 = bloch[g.qubit1];
            const double z0 = b0[2];
            const double z1 = b1[2];
            rzzReduced(b0, z1, angle);
            rzzReduced(b1, z0, angle);
            dephase(b0, _dephasing);
            dephase(b1, _dephasing);
            break;
          }
          case GateType::CZ:
            apply_cz(b0, bloch[g.qubit1]);
            break;
          case GateType::CNOT: {
            // CNOT = H_t . CZ . H_t.
            auto &b1 = bloch[g.qubit1];
            hadamardBloch(b1);
            apply_cz(b0, b1);
            hadamardBloch(b1);
            break;
          }
        }
    }
    return bloch;
}

std::vector<std::uint64_t>
MeanFieldSampler::sample(const QuantumCircuit &c, std::size_t shots,
                         sim::Rng &rng)
{
    if (c.numQubits() > 64)
        sim::fatal("64-bit sample words cap the register at 64 qubits");
    const auto bloch = evolve(c);
    std::vector<double> p1(c.numQubits());
    for (std::uint32_t q = 0; q < c.numQubits(); ++q)
        p1[q] = (1.0 - bloch[q][2]) / 2.0;
    return sampleProductShots(p1, shots, rng);
}

double
MeanFieldSampler::marginalOne(const QuantumCircuit &c, std::uint32_t q)
{
    const auto bloch = evolve(c);
    if (q >= bloch.size())
        sim::panic("qubit ", q, " out of range");
    return (1.0 - bloch[q][2]) / 2.0;
}

Backend &
BackendSampler::prepare(const QuantumCircuit &c)
{
    if (!_backend || _backend->numQubits() != c.numQubits())
        _backend = makeBackend(c.numQubits(), _cfg);
    _backend->run(c);
    return *_backend;
}

std::vector<std::uint64_t>
BackendSampler::sample(const QuantumCircuit &c, std::size_t shots,
                       sim::Rng &rng)
{
    if (c.numQubits() > 64)
        sim::fatal("64-bit sample words cap the register at 64 qubits");
    return prepare(c).sample(shots, rng);
}

double
BackendSampler::marginalOne(const QuantumCircuit &c, std::uint32_t q)
{
    return prepare(c).marginalOne(q);
}

std::uint32_t
BackendSampler::maxQubits() const
{
    if (_backend)
        return _backend->maxQubits();
    // Auto falls back to the mean-field engine above the exact cap.
    return _cfg.kind == BackendKind::Auto ? 4096 : _cfg.exactCap;
}

NoisyReadoutSampler::NoisyReadoutSampler(
    std::unique_ptr<MeasurementSampler> inner, double flip_probability)
    : _inner(std::move(inner)), _flip(flip_probability)
{
    if (!_inner)
        sim::fatal("noisy sampler needs an inner sampler");
    if (_flip < 0.0 || _flip > 0.5)
        sim::fatal("readout flip probability must be in [0, 0.5], "
                   "got ", _flip);
}

std::vector<std::uint64_t>
NoisyReadoutSampler::sample(const QuantumCircuit &c, std::size_t shots,
                            sim::Rng &rng)
{
    auto out = _inner->sample(c, shots, rng);
    if (_flip == 0.0)
        return out;
    const auto flips = sampleProductShots(
        std::vector<double>(c.numQubits(), _flip), out.size(), rng);
    for (std::size_t s = 0; s < out.size(); ++s)
        out[s] ^= flips[s];
    return out;
}

double
NoisyReadoutSampler::marginalOne(const QuantumCircuit &c,
                                 std::uint32_t q)
{
    const double p = _inner->marginalOne(c, q);
    return p * (1.0 - _flip) + (1.0 - p) * _flip;
}

std::vector<std::uint64_t>
sampleProductShots(const std::vector<double> &p1, std::size_t shots,
                   sim::Rng &rng)
{
    const std::size_t n = p1.size();
    if (n > 64)
        sim::fatal("64-bit sample words cap the register at 64 qubits");
    std::array<std::uint64_t, 64> below{};
    std::uint64_t always = 0;
    for (std::size_t q = 0; q < n; ++q) {
        const auto t = sim::Rng::coinThreshold(p1[q]);
        below[q] = t.below;
        always |= std::uint64_t(t.always) << q;
    }

    std::vector<std::uint64_t> out(shots);
    for (auto &word : out) {
        std::uint64_t bits = always;
        for (std::size_t q = 0; q < n; ++q)
            bits |= std::uint64_t(rng.raw() < below[q]) << q;
        word = bits;
    }
    return out;
}

std::unique_ptr<MeasurementSampler>
makeBackendSampler(std::uint32_t num_qubits, const BackendConfig &cfg,
                   double readout_error)
{
    // Resolve eagerly so a forced kind that cannot hold the register
    // fails at construction, not at first sample.
    resolveBackendKind(cfg.kind, num_qubits, cfg.exactCap);
    std::unique_ptr<MeasurementSampler> s =
        std::make_unique<BackendSampler>(cfg);
    if (readout_error > 0.0) {
        s = std::make_unique<NoisyReadoutSampler>(std::move(s),
                                                  readout_error);
    }
    return s;
}

std::unique_ptr<MeasurementSampler>
makeDefaultSampler(std::uint32_t num_qubits, std::uint32_t exact_cap,
                   double readout_error)
{
    BackendConfig cfg;
    cfg.exactCap = exact_cap;
    return makeBackendSampler(num_qubits, cfg, readout_error);
}

} // namespace qtenon::quantum
