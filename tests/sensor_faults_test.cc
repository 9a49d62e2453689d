// Degraded-observation determinism: the sensor fault injector must corrupt
// streams bitwise-identically for a given seed + config at any thread count,
// each fault model must honor its documented semantics, and the spec parser
// must round-trip through SensorFaultConfig::ToString(). Also covers the
// mask helpers and the engine-level wiring (EngineConfig::sensor_faults).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/engine.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "sim/sensor_faults.h"
#include "util/thread_pool.h"

namespace ovs::sim {
namespace {

// Restores the global pool size on scope exit so test order does not matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

DMat MakeSpeed(int links, int intervals) {
  DMat speed(links, intervals);
  for (int l = 0; l < links; ++l) {
    for (int t = 0; t < intervals; ++t) {
      speed.at(l, t) = 5.0 + 0.25 * l + 1.0 * t;
    }
  }
  return speed;
}

DMat MakeVolume(int links, int intervals) {
  DMat volume(links, intervals);
  for (int l = 0; l < links; ++l) {
    for (int t = 0; t < intervals; ++t) {
      volume.at(l, t) = 10.0 * l + t;
    }
  }
  return volume;
}

// Bitwise equality, NaN-safe: two NaN cells with identical bit patterns
// compare equal, which is exactly the determinism contract we pin down.
bool BitwiseEqual(const DMat& a, const DMat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::bit_cast<uint64_t>(a.at(r, c)) !=
          std::bit_cast<uint64_t>(b.at(r, c))) {
        return false;
      }
    }
  }
  return true;
}

// --------------------------------------------------- per-model semantics --

TEST(SensorFaultsTest, AllOffConfigIsANoOp) {
  SensorFaultConfig config;
  EXPECT_FALSE(config.any());
  DMat speed = MakeSpeed(4, 6);
  const DMat original = speed;
  ApplySensorFaults(config, &speed, /*volume=*/nullptr);
  EXPECT_TRUE(BitwiseEqual(speed, original));
}

TEST(SensorFaultsTest, DropoutPoisonsSpeedAndVolumeTogether) {
  SensorFaultConfig config;
  config.dropout = 0.5;
  DMat speed = MakeSpeed(8, 10);
  DMat volume = MakeVolume(8, 10);
  const DMat speed_before = speed;
  const DMat volume_before = volume;
  ApplySensorFaults(config, &speed, &volume);

  int dropped = 0;
  for (int l = 0; l < speed.rows(); ++l) {
    for (int t = 0; t < speed.cols(); ++t) {
      if (std::isnan(speed.at(l, t))) {
        ++dropped;
        // A dead detector reports neither speed nor volume.
        EXPECT_TRUE(std::isnan(volume.at(l, t))) << "l=" << l << " t=" << t;
      } else {
        // Surviving cells are untouched.
        EXPECT_EQ(speed.at(l, t), speed_before.at(l, t));
        EXPECT_EQ(volume.at(l, t), volume_before.at(l, t));
      }
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, speed.numel());
}

TEST(SensorFaultsTest, BlackoutDarkensWholeLinks) {
  SensorFaultConfig config;
  config.blackout = 0.5;
  DMat speed = MakeSpeed(10, 6);
  const DMat before = speed;
  ApplySensorFaults(config, &speed, /*volume=*/nullptr);

  int dark_links = 0;
  for (int l = 0; l < speed.rows(); ++l) {
    const bool first_dark = std::isnan(speed.at(l, 0));
    dark_links += first_dark ? 1 : 0;
    // A link is either fully dark or fully intact — never half a row.
    for (int t = 0; t < speed.cols(); ++t) {
      if (first_dark) {
        EXPECT_TRUE(std::isnan(speed.at(l, t))) << "l=" << l << " t=" << t;
      } else {
        EXPECT_EQ(speed.at(l, t), before.at(l, t));
      }
    }
  }
  EXPECT_GT(dark_links, 0);
  EXPECT_LT(dark_links, speed.rows());
}

TEST(SensorFaultsTest, StuckRepeatsTheLastReadingBeforeTheFreeze) {
  SensorFaultConfig config;
  config.stuck = 1.0;  // every link freezes
  const int links = 5, intervals = 8;
  // Column-distinct values so the freeze point is recoverable from the data.
  DMat speed(links, intervals);
  for (int l = 0; l < links; ++l) {
    for (int t = 0; t < intervals; ++t) speed.at(l, t) = t;
  }
  ApplySensorFaults(config, &speed, /*volume=*/nullptr);

  for (int l = 0; l < links; ++l) {
    int freeze = intervals;
    for (int t = 0; t < intervals; ++t) {
      if (speed.at(l, t) != static_cast<double>(t)) {
        freeze = t;
        break;
      }
    }
    ASSERT_GE(freeze, 1) << "freeze point must leave interval 0 intact";
    ASSERT_LT(freeze, intervals) << "stuck=1.0 must freeze link " << l;
    for (int t = freeze; t < intervals; ++t) {
      EXPECT_EQ(speed.at(l, t), static_cast<double>(freeze - 1))
          << "l=" << l << " t=" << t;
    }
  }
}

TEST(SensorFaultsTest, NoiseClampsSpeedAtZeroAndStaysFinite) {
  SensorFaultConfig config;
  config.noise = 4.0;
  DMat speed(6, 6);  // all-zero: every negative draw must clamp
  ApplySensorFaults(config, &speed, /*volume=*/nullptr);
  int perturbed = 0;
  for (int l = 0; l < speed.rows(); ++l) {
    for (int t = 0; t < speed.cols(); ++t) {
      EXPECT_GE(speed.at(l, t), 0.0);
      EXPECT_TRUE(std::isfinite(speed.at(l, t)));
      if (speed.at(l, t) != 0.0) ++perturbed;
    }
  }
  EXPECT_GT(perturbed, 0);
}

TEST(SensorFaultsTest, SpikeMultipliesByTheConfiguredMagnitude) {
  SensorFaultConfig config;
  config.spike = 1.0;  // every cell spikes
  config.spike_magnitude = 3.0;
  DMat speed = MakeSpeed(4, 5);
  const DMat before = speed;
  ApplySensorFaults(config, &speed, /*volume=*/nullptr);
  for (int l = 0; l < speed.rows(); ++l) {
    for (int t = 0; t < speed.cols(); ++t) {
      EXPECT_DOUBLE_EQ(speed.at(l, t), before.at(l, t) * 3.0);
    }
  }
}

TEST(SensorFaultsTest, NanPoisonHitsBothMatrices) {
  SensorFaultConfig config;
  config.nan_poison = 0.4;
  DMat speed = MakeSpeed(8, 8);
  DMat volume = MakeVolume(8, 8);
  ApplySensorFaults(config, &speed, &volume);
  int poisoned = 0;
  for (int l = 0; l < speed.rows(); ++l) {
    for (int t = 0; t < speed.cols(); ++t) {
      EXPECT_EQ(std::isnan(speed.at(l, t)), std::isnan(volume.at(l, t)));
      if (std::isnan(speed.at(l, t))) ++poisoned;
    }
  }
  EXPECT_GT(poisoned, 0);
}

// ------------------------------------------------------------ determinism --

TEST(SensorFaultsTest, SameSeedSameConfigIsBitwiseReproducible) {
  SensorFaultConfig config;
  config.dropout = 0.2;
  config.blackout = 0.1;
  config.stuck = 0.3;
  config.noise = 1.0;
  config.spike = 0.05;
  config.nan_poison = 0.05;
  config.seed = 1234;

  DMat speed_a = MakeSpeed(12, 10), volume_a = MakeVolume(12, 10);
  DMat speed_b = MakeSpeed(12, 10), volume_b = MakeVolume(12, 10);
  ApplySensorFaults(config, &speed_a, &volume_a);
  ApplySensorFaults(config, &speed_b, &volume_b);
  EXPECT_TRUE(BitwiseEqual(speed_a, speed_b));
  EXPECT_TRUE(BitwiseEqual(volume_a, volume_b));

  SensorFaultConfig reseeded = config;
  reseeded.seed = 4321;
  DMat speed_c = MakeSpeed(12, 10);
  ApplySensorFaults(reseeded, &speed_c, /*volume=*/nullptr);
  EXPECT_FALSE(BitwiseEqual(speed_a, speed_c));
}

TEST(SensorFaultsTest, CorruptedStreamIsIdenticalAtOneAndFourThreads) {
  SensorFaultConfig config;
  config.dropout = 0.25;
  config.blackout = 0.1;
  config.stuck = 0.2;
  config.noise = 0.8;
  config.spike = 0.1;
  config.nan_poison = 0.05;

  DMat speed_1t = MakeSpeed(16, 12), volume_1t = MakeVolume(16, 12);
  {
    ThreadGuard guard(1);
    ApplySensorFaults(config, &speed_1t, &volume_1t);
  }
  DMat speed_4t = MakeSpeed(16, 12), volume_4t = MakeVolume(16, 12);
  {
    ThreadGuard guard(4);
    ApplySensorFaults(config, &speed_4t, &volume_4t);
  }
  EXPECT_TRUE(BitwiseEqual(speed_1t, speed_4t));
  EXPECT_TRUE(BitwiseEqual(volume_1t, volume_4t));
}

TEST(SensorFaultsTest, EnablingOneModelDoesNotShiftAnothersPattern) {
  // Dropout draws from its own stream: adding noise must corrupt values but
  // leave the *set* of dropped cells exactly where it was.
  SensorFaultConfig dropout_only;
  dropout_only.dropout = 0.3;
  DMat speed_a = MakeSpeed(10, 10);
  ApplySensorFaults(dropout_only, &speed_a, /*volume=*/nullptr);

  SensorFaultConfig with_noise = dropout_only;
  with_noise.noise = 1.5;
  DMat speed_b = MakeSpeed(10, 10);
  ApplySensorFaults(with_noise, &speed_b, /*volume=*/nullptr);

  for (int l = 0; l < speed_a.rows(); ++l) {
    for (int t = 0; t < speed_a.cols(); ++t) {
      EXPECT_EQ(std::isnan(speed_a.at(l, t)), std::isnan(speed_b.at(l, t)))
          << "dropout pattern shifted at l=" << l << " t=" << t;
    }
  }
}

// ------------------------------------------------------------ spec parser --

TEST(SensorFaultsTest, ParseSpecReadsEveryKey) {
  StatusOr<SensorFaultConfig> parsed = ParseSensorFaultSpec(
      "dropout:0.3,blackout:0.1,stuck:0.2,noise:1.5,spike:0.05,"
      "spike_mag:4,nan:0.01,seed:7");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const SensorFaultConfig& config = *parsed;
  EXPECT_DOUBLE_EQ(config.dropout, 0.3);
  EXPECT_DOUBLE_EQ(config.blackout, 0.1);
  EXPECT_DOUBLE_EQ(config.stuck, 0.2);
  EXPECT_DOUBLE_EQ(config.noise, 1.5);
  EXPECT_DOUBLE_EQ(config.spike, 0.05);
  EXPECT_DOUBLE_EQ(config.spike_magnitude, 4.0);
  EXPECT_DOUBLE_EQ(config.nan_poison, 0.01);
  EXPECT_EQ(config.seed, 7u);
}

TEST(SensorFaultsTest, ParseSpecRoundTripsThroughToString) {
  SensorFaultConfig config;
  config.dropout = 0.3;
  config.noise = 1.5;
  EXPECT_EQ(config.ToString(), "dropout:0.3,noise:1.5");
  StatusOr<SensorFaultConfig> reparsed = ParseSensorFaultSpec(config.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_DOUBLE_EQ(reparsed->dropout, 0.3);
  EXPECT_DOUBLE_EQ(reparsed->noise, 1.5);
  EXPECT_FALSE(reparsed->blackout > 0.0);

  SensorFaultConfig off;
  EXPECT_EQ(off.ToString(), "none");
}

TEST(SensorFaultsTest, ParseSpecEmptyIsAllOff) {
  StatusOr<SensorFaultConfig> parsed = ParseSensorFaultSpec("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->any());
}

TEST(SensorFaultsTest, ParseSpecRejectsMalformedEntries) {
  EXPECT_EQ(ParseSensorFaultSpec("dropout").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSensorFaultSpec("wibble:0.2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSensorFaultSpec("dropout:1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSensorFaultSpec("noise:-1").status().code(),
            StatusCode::kInvalidArgument);
  // ParseDouble reads "nan" and "inf"; the spec must not. NaN slips past a
  // plain range check, and an infinite noise or spike turns speeds into inf.
  for (const char* spec :
       {"dropout:nan", "noise:inf", "spike:1,spike_mag:inf", "spike_mag:nan"}) {
    EXPECT_EQ(ParseSensorFaultSpec(spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  // A non-numeric value propagates ParseDouble's own error code.
  EXPECT_FALSE(ParseSensorFaultSpec("dropout:abc").ok());
}

// ----------------------------------------------------------- mask helpers --

TEST(SensorFaultsTest, MaskHelpersAgreeOnInvalidCells) {
  DMat observed = MakeSpeed(4, 4);
  observed.at(1, 2) = std::numeric_limits<double>::quiet_NaN();
  observed.at(3, 0) = std::numeric_limits<double>::infinity();

  const DMat mask = ObservationMask(observed);
  int masked_off = 0;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int c = 0; c < mask.cols(); ++c) {
      EXPECT_EQ(mask.at(r, c),
                std::isfinite(observed.at(r, c)) ? 1.0 : 0.0);
      if (mask.at(r, c) == 0.0) ++masked_off;
    }
  }
  EXPECT_EQ(masked_off, 2);
  EXPECT_EQ(CountInvalidCells(observed), 2);

  const DMat filled = FillInvalidCells(observed, 9.5);
  EXPECT_DOUBLE_EQ(filled.at(1, 2), 9.5);
  EXPECT_DOUBLE_EQ(filled.at(3, 0), 9.5);
  EXPECT_EQ(CountInvalidCells(filled), 0);
  EXPECT_EQ(filled.at(0, 0), observed.at(0, 0));
}

// ---------------------------------------------------------- engine wiring --

TEST(SensorFaultsTest, EngineAppliesConfiguredFaultsToItsOutput) {
  RoadNet net = MakeGridNetwork(2, 2, 200.0, 1, 10.0);
  EngineConfig config;
  config.duration_s = 1200.0;
  config.interval_s = 600.0;
  config.sensor_faults.dropout = 0.5;
  Engine engine(&net, config);
  SensorData out = engine.Run();

  const int invalid = CountInvalidCells(out.speed);
  EXPECT_GT(invalid, 0);
  EXPECT_LT(invalid, out.speed.numel());
  // Dropped cells vanish from both sensor channels.
  for (int l = 0; l < out.speed.rows(); ++l) {
    for (int t = 0; t < out.speed.cols(); ++t) {
      EXPECT_EQ(std::isnan(out.speed.at(l, t)),
                std::isnan(out.volume.at(l, t)));
    }
  }

  // Same scenario without faults: clean output, and the corrupted run's
  // surviving cells match it exactly (the injector only removes data here).
  EngineConfig clean_config = config;
  clean_config.sensor_faults = SensorFaultConfig();
  Engine clean_engine(&net, clean_config);
  SensorData clean = clean_engine.Run();
  EXPECT_EQ(CountInvalidCells(clean.speed), 0);
  for (int l = 0; l < out.speed.rows(); ++l) {
    for (int t = 0; t < out.speed.cols(); ++t) {
      if (!std::isnan(out.speed.at(l, t))) {
        EXPECT_EQ(out.speed.at(l, t), clean.speed.at(l, t));
      }
    }
  }
}

}  // namespace
}  // namespace ovs::sim
