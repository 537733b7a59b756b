/**
 * @file
 * Measurement samplers: the functional interface between circuits and
 * measurement bitstrings.
 *
 * Two implementations:
 *  - StatevectorSampler: exact, up to the statevector qubit cap.
 *  - MeanFieldSampler: a product-state (Bloch-vector) approximation
 *    for the 48..320-qubit benchmark configurations where dense
 *    simulation is impossible. This is the documented substitution
 *    for the paper's Qiskit-generated chip I/O: the architecture
 *    benchmarks depend only on circuit shape and shot counts, while
 *    the optimizer merely needs smooth, parameter-sensitive
 *    measurement statistics, which a mean-field state provides.
 */

#ifndef QTENON_QUANTUM_SAMPLER_HH
#define QTENON_QUANTUM_SAMPLER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend.hh"
#include "circuit.hh"
#include "sim/random.hh"
#include "statevector.hh"

namespace qtenon::quantum {

/** Functional backend producing measurement outcomes for a circuit. */
class MeasurementSampler
{
  public:
    virtual ~MeasurementSampler() = default;

    /**
     * Execute @p c and draw @p shots full-register measurement
     * outcomes. Bit q of each word is qubit q's readout. Registers
     * wider than 64 qubits return multiple words per shot via
     * sampleWide(); this entry point requires n <= 64.
     */
    virtual std::vector<std::uint64_t> sample(
        const QuantumCircuit &c, std::size_t shots, sim::Rng &rng) = 0;

    /** Probability that qubit @p q reads 1 after executing @p c. */
    virtual double marginalOne(const QuantumCircuit &c,
                               std::uint32_t q) = 0;

    /** Largest register this sampler handles. */
    virtual std::uint32_t maxQubits() const = 0;
};

/**
 * Exact sampler backed by the dense statevector. The 2^n amplitude
 * buffer is allocated on first use and reused across calls (reset in
 * place); it only reallocates when the register width changes.
 */
class StatevectorSampler : public MeasurementSampler
{
  public:
    explicit StatevectorSampler(
        std::uint32_t max_qubits = StateVector::defaultMaxQubits,
        KernelConfig kernel = KernelConfig{})
        : _maxQubits(max_qubits), _kernel(kernel)
    {}

    std::vector<std::uint64_t> sample(const QuantumCircuit &c,
                                      std::size_t shots,
                                      sim::Rng &rng) override;
    double marginalOne(const QuantumCircuit &c, std::uint32_t q) override;
    std::uint32_t maxQubits() const override { return _maxQubits; }

  private:
    /** The reusable state, prepared for @p c. */
    StateVector &prepare(const QuantumCircuit &c);

    std::uint32_t _maxQubits;
    KernelConfig _kernel;
    std::unique_ptr<StateVector> _sv;
};

/**
 * Product-state approximation: each qubit carries a Bloch vector;
 * single-qubit rotations are exact, and two-qubit entanglers apply
 * the *exact* single-qubit reduced-state map for product inputs (the
 * transverse component is rotated by the partner's <Z> and shrunk by
 * the coherence genuinely lost to entanglement). Correlations across
 * repeated interactions are dropped - the documented substitution
 * for dense simulation beyond the statevector cap. An optional extra
 * dephasing factor can model additional noise.
 */
class MeanFieldSampler : public MeasurementSampler
{
  public:
    explicit MeanFieldSampler(double entangler_dephasing = 1.0)
        : _dephasing(entangler_dephasing)
    {}

    std::vector<std::uint64_t> sample(const QuantumCircuit &c,
                                      std::size_t shots,
                                      sim::Rng &rng) override;
    double marginalOne(const QuantumCircuit &c, std::uint32_t q) override;
    std::uint32_t maxQubits() const override { return 4096; }

    /** Evolve the per-qubit Bloch vectors for circuit @p c. */
    std::vector<std::array<double, 3>> evolve(
        const QuantumCircuit &c) const;

  private:
    double _dephasing;
};

/**
 * Adapter exposing any quantum::Backend through the sampler
 * interface. The backend is built lazily from the stored config on
 * first use and rebuilt only when the register width changes, so
 * repeated circuits reuse one state buffer.
 */
class BackendSampler : public MeasurementSampler
{
  public:
    explicit BackendSampler(BackendConfig cfg = {}) : _cfg(cfg) {}

    std::vector<std::uint64_t> sample(const QuantumCircuit &c,
                                      std::size_t shots,
                                      sim::Rng &rng) override;
    double marginalOne(const QuantumCircuit &c, std::uint32_t q) override;
    std::uint32_t maxQubits() const override;

    const BackendConfig &config() const { return _cfg; }

    /** The engine behind the last circuit; nullptr before first use. */
    Backend *backend() { return _backend.get(); }

  private:
    /** The backend for @p c's register, with the circuit applied. */
    Backend &prepare(const QuantumCircuit &c);

    BackendConfig _cfg;
    std::unique_ptr<Backend> _backend;
};

/**
 * Readout-error decorator: wraps any sampler and flips each measured
 * bit independently with the given probability, modelling the
 * assignment errors of superconducting dispersive readout. Marginals
 * are adjusted analytically: p' = p (1 - e) + (1 - p) e.
 */
class NoisyReadoutSampler : public MeasurementSampler
{
  public:
    NoisyReadoutSampler(std::unique_ptr<MeasurementSampler> inner,
                        double flip_probability);

    std::vector<std::uint64_t> sample(const QuantumCircuit &c,
                                      std::size_t shots,
                                      sim::Rng &rng) override;
    double marginalOne(const QuantumCircuit &c, std::uint32_t q) override;
    std::uint32_t maxQubits() const override
    {
        return _inner->maxQubits();
    }

    double flipProbability() const { return _flip; }

  private:
    std::unique_ptr<MeasurementSampler> _inner;
    double _flip;
};

/**
 * Draw @p shots product-state measurement words: bit q of each word
 * reads 1 with probability p1[q] (p1.size() <= 64). Bit-identical to
 * calling rng.coin(p1[q]) per shot, per qubit in turn - the same
 * draws in the same order - but each coin is an integer compare of
 * one raw draw against a threshold computed once per call.
 */
std::vector<std::uint64_t> sampleProductShots(
    const std::vector<double> &p1, std::size_t shots, sim::Rng &rng);

/**
 * Build a sampler through the backend selection policy (see
 * resolveBackendKind): exact statevector when the register fits under
 * cfg.exactCap, mean-field above it, or whatever cfg.kind forces. A
 * nonzero @p readout_error wraps the result in a NoisyReadoutSampler.
 */
std::unique_ptr<MeasurementSampler> makeBackendSampler(
    std::uint32_t num_qubits, const BackendConfig &cfg = {},
    double readout_error = 0.0);

/**
 * Pick an exact sampler when the register fits, otherwise fall back
 * to the mean-field approximation. A nonzero @p readout_error wraps
 * the result in a NoisyReadoutSampler. Equivalent to
 * makeBackendSampler with the Auto policy.
 */
std::unique_ptr<MeasurementSampler> makeDefaultSampler(
    std::uint32_t num_qubits,
    std::uint32_t exact_cap = StateVector::defaultMaxQubits,
    double readout_error = 0.0);

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_SAMPLER_HH
