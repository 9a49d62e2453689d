#ifndef OVS_SIM_SENSOR_FAULTS_H_
#define OVS_SIM_SENSOR_FAULTS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/mat.h"
#include "util/status.h"

namespace ovs::sim {

/// Composable fault models applied to the simulator's per-interval link
/// sensor outputs (speed [M x T], optionally volume [M x T]). Real city
/// feeds are never clean — links go dark, sensors stick, readings spike —
/// and this config reproduces those degradations deterministically so the
/// recovery pipeline can be tested against them.
///
/// Semantics (see DESIGN.md "Degraded observations & fault injection"):
///  - dropout:  each speed cell independently goes missing (NaN) with this
///              probability; the matching volume cell is dropped too (a dead
///              detector reports neither).
///  - blackout: each link independently goes fully dark with this
///              probability — its entire speed and volume rows become NaN.
///  - stuck:    each link independently freezes with this probability: a
///              freeze interval f >= 1 is drawn uniformly and the sensor
///              repeats its interval-(f-1) reading for all t >= f.
///  - noise:    i.i.d. Gaussian noise with this stddev (m/s) added to every
///              speed cell, clamped at 0 (a speed sensor cannot go negative).
///  - spike:    each speed cell is independently multiplied by
///              `spike_magnitude` with this probability (a bogus
///              over-reading, e.g. a misconfigured radar unit).
///  - nan_poison: each cell independently becomes NaN in BOTH speed and
///              volume with this probability (corrupt telemetry records).
///
/// Determinism contract: each fault model draws from its own Rng stream
/// seeded from `seed` and a model-specific tag, in a fixed serial cell
/// order. The same seed + the same config therefore produce a bitwise
/// identical corrupted stream at any thread count, and enabling one model
/// never shifts the random pattern of another.
struct SensorFaultConfig {
  double dropout = 0.0;           ///< per-cell missing probability, [0, 1]
  double blackout = 0.0;          ///< per-link dark probability, [0, 1]
  double stuck = 0.0;             ///< per-link freeze probability, [0, 1]
  double noise = 0.0;             ///< Gaussian speed noise stddev, m/s
  double spike = 0.0;             ///< per-cell spike probability, [0, 1]
  double spike_magnitude = 3.0;   ///< multiplier applied to spiked cells
  double nan_poison = 0.0;        ///< per-cell poison probability, [0, 1]
  uint64_t seed = 20260806;       ///< base seed for all fault streams

  /// True when any fault model is active.
  bool any() const {
    return dropout > 0.0 || blackout > 0.0 || stuck > 0.0 || noise > 0.0 ||
           spike > 0.0 || nan_poison > 0.0;
  }

  /// Spec-style rendering ("dropout:0.3,noise:1") for logs and tables.
  std::string ToString() const;
};

/// Parses a "--sensor_fault=" spec: comma-separated key:value pairs with
/// keys dropout / blackout / stuck / noise / spike / spike_mag / nan / seed,
/// e.g. "dropout:0.3,noise:1.0". Probabilities must lie in [0, 1]; noise
/// and spike_mag must be finite and >= 0. An empty spec is the all-off
/// config.
[[nodiscard]] StatusOr<SensorFaultConfig> ParseSensorFaultSpec(
    std::string_view spec);

/// Corrupts `speed` (and, when non-null, `volume`) in place according to
/// `config`. Both matrices must share the [links x intervals] shape.
/// Deterministic (see SensorFaultConfig); runs serially by design so the
/// corrupted stream never depends on the thread count.
void ApplySensorFaults(const SensorFaultConfig& config, DMat* speed,
                       DMat* volume);

/// Observation-validity mask: 1.0 where `observed` is finite, 0.0 elsewhere.
/// This is the mask the recovery losses and metrics thread through.
[[nodiscard]] DMat ObservationMask(const DMat& observed);

/// Number of non-finite cells in `observed`.
[[nodiscard]] int CountInvalidCells(const DMat& observed);

/// Copy of `observed` with every non-finite cell replaced by `fill`. The
/// unmasked ("garbage-in") recovery path reads a dark sensor as `fill`.
[[nodiscard]] DMat FillInvalidCells(const DMat& observed, double fill);

}  // namespace ovs::sim

#endif  // OVS_SIM_SENSOR_FAULTS_H_
