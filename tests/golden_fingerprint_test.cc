// Cross-commit golden fingerprints of short seeded runs.
//
// The determinism matrix compares two runs of one binary, so it cannot see a
// change that moves every run the same way. This test pins what three short
// runs produce to constants: the array, TPC-C and faulty-RocksDB
// configurations of adiosbench/ (stock Adios preset, 2 ms warm-up, 2 ms
// measurement window, seed 1). Each fingerprint is {sent, completed,
// dropped, failed, engine events, FNV-1a hash over every sample's
// (id, e2e_ns)}. With the invariant checker on (ADIOS_CHECKS=1), its periodic
// audits are extra engine events that change nothing else; they are
// subtracted, so the same constants hold on that build. Each case also pins
// its integrity outcome {detected, repaired, unrepairable, scrub_pages}
// (all zero where the integrity layer is off), so a change that hid a
// corruption cannot pass on timing alone.
//
// Re-baseline rule: the constants change only in a change that intends to
// alter simulated behaviour, and that change says so in CHANGES.md. A host
// speed-up (engine, allocator, data-structure work) must leave every
// constant here untouched. On a mismatch the test prints the new values in
// the form of the table below.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/apps/silo_app.h"
#include "src/core/md_system.h"

namespace adios {
namespace {

struct Fingerprint {
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t failed = 0;
  uint64_t events = 0;
  uint64_t samples_hash = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct IntegrityCounts {
  uint64_t detected = 0;
  uint64_t repaired = 0;
  uint64_t unrepairable = 0;
  uint64_t scrub_pages = 0;

  bool operator==(const IntegrityCounts&) const = default;
};

struct GoldenCase {
  const char* name;
  double rps;
  std::function<std::unique_ptr<Application>()> make_app;
  std::function<SystemConfig()> make_config;
  Fingerprint golden;
  IntegrityCounts golden_integrity{};
};

constexpr uint64_t kSeed = 1;
constexpr SimDuration kWarmup = Milliseconds(2);
constexpr SimDuration kMeasure = Milliseconds(2);

SystemConfig Preset() {
  SystemConfig c = SystemConfig::Adios();
  c.seed = kSeed;
  return c;
}

Fingerprint RunCase(const GoldenCase& gc, IntegrityCounts* integrity) {
  std::unique_ptr<Application> app = gc.make_app();
  MdSystem sys(gc.make_config(), app.get());
  LoadGenerator::Options lo;
  lo.max_samples = 1u << 20;
  const RunResult r = sys.Run(gc.rps, kWarmup, kMeasure, &lo);
  *integrity = {r.integrity.detected, r.integrity.repaired, r.integrity.unrepairable,
                r.integrity.scrub_pages};
  const InvariantChecker* checker = sys.invariant_checker();
  const uint64_t audit_events = checker != nullptr ? checker->report().audit_events : 0;
  Fingerprint fp{r.sent, r.completed, r.dropped, r.requests_failed,
                 sys.engine().events_processed() - audit_events, 1469598103934665603ull};
  for (const RequestSample& s : r.samples) {
    for (uint64_t word : {s.id, s.e2e_ns}) {
      fp.samples_hash = (fp.samples_hash ^ word) * 1099511628211ull;
    }
  }
  return fp;
}

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  cases.push_back(GoldenCase{
      "array-uniform", 1.5e6,
      [] {
        ArrayApp::Options o;
        o.entries = 1u << 20;
        o.entry_bytes = 64;
        return std::make_unique<ArrayApp>(o);
      },
      Preset,
      {6040, 6040, 0, 0, 194203, 0x60dd376475dd627ull}});
  cases.push_back(GoldenCase{
      "silo-tpcc", 200e3,
      [] {
        SiloApp::Options o;
        o.warehouses = 4;
        return std::make_unique<SiloApp>(o);
      },
      Preset,
      {779, 779, 0, 0, 99330, 0xb4a5e14dfad673baull}});
  cases.push_back(GoldenCase{
      "rocksdb-faulty", 1.0e6,
      [] {
        RocksDbApp::Options o;
        o.num_keys = 1u << 18;
        o.value_bytes = 1024;
        o.scan_fraction = 0.01;
        o.scan_length = 100;
        return std::make_unique<RocksDbApp>(o);
      },
      [] {
        SystemConfig c = Preset();
        c.replication.num_nodes = 2;
        c.replication.replicas = 2;
        c.retry.enabled = true;
        c.fault.read_loss_rate = 1e-3;
        c.fault.corrupt_rate = 1e-4;
        c.fault.seed = kSeed * 1000003 + 99;
        // A 0.5 ms blackout of node 0 inside the measurement window.
        c.fault.blackout_node = 0;
        c.fault.blackout_start_ns = kWarmup + Microseconds(500);
        c.fault.blackout_duration_ns = Microseconds(500);
        c.integrity.verify = true;
        c.integrity.scrub = true;
        c.sched.prefetch_window = 8;
        c.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
        c.fabric.link_classes = kNumTrafficClasses;
        return c;
      },
      {4089, 4089, 0, 0, 196013, 0x94c28b5e0d2d6398ull},
      {1, 1, 0, 64}});
  return cases;
}

class GoldenFingerprint : public ::testing::TestWithParam<size_t> {};

TEST_P(GoldenFingerprint, MatchesRecordedConstants) {
  const GoldenCase gc = Cases()[GetParam()];
  IntegrityCounts ic;
  const Fingerprint fp = RunCase(gc, &ic);
  EXPECT_EQ(fp, gc.golden) << gc.name << " now reads {" << fp.sent << ", " << fp.completed
                           << ", " << fp.dropped << ", " << fp.failed << ", " << fp.events
                           << ", 0x" << std::hex << fp.samples_hash << "ull}";
  EXPECT_EQ(ic, gc.golden_integrity)
      << gc.name << " integrity now reads {" << ic.detected << ", " << ic.repaired << ", "
      << ic.unrepairable << ", " << ic.scrub_pages << "}";
  EXPECT_GT(fp.completed, 0u);
}

std::string CaseName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* const kNames[] = {"ArrayUniform", "SiloTpcc", "RocksdbFaulty"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenFingerprint, ::testing::Values(0, 1, 2), CaseName);

}  // namespace
}  // namespace adios
