// adios_bench: runs one benchmark workload of the Adios simulator in this
// process and prints every metric by name, with its unit and clock, ending
// with one JSON result line.
//
//   adios_bench --workload <array-uniform|silo-tpcc|rocksdb-faulty>
//               --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Two clocks are measured. "sim" metrics come from the simulated clock of
// MdSystem::Run; "host" metrics are std::chrono::steady_clock readings taken
// here, around the public calls, never inside src/. The Run throughput and
// the set-up time are divided by benchmark-side kernels timed around each
// repeat, so they move less with the shared host's speed. Everything is measured
// from outside the simulator: RunResult, MetricsSnapshot, FaultInjector, the
// Tracer (folded with BuildSpans) and a benchmark-side Application/WorkerApi
// decorator that records spans around the calls into each layer.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a separate traced run. Both modes run the correctness gate
// and exit 1, naming the failed check, when any check fails. NOTES.md
// describes the workloads, metrics and checks.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/apps/silo_app.h"
#include "src/core/md_system.h"
#include "src/obs/span_builder.h"
#include "src/obs/trace_export.h"
#include "src/unithread/context.h"

namespace adios {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Median(std::vector<double> v) {
  ADIOS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
uint64_t NearestRank(std::vector<uint64_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The same, from nanoseconds to microseconds.
double PercentileUs(std::vector<uint64_t>& v, double p) {
  return static_cast<double>(NearestRank(v, p)) / 1000.0;
}

// Mean of `v` (nanoseconds) in microseconds; 0 when empty.
double MeanUs(const std::vector<uint64_t>& v) {
  double sum = 0.0;
  for (uint64_t x : v) {
    sum += static_cast<double>(x);
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size()) / 1000.0;
}

// ---------------------------------------------------------------------------
// Workloads. Every workload runs the stock Adios preset (8 workers, 20% local
// DRAM) under the open-loop Poisson generator at a fixed offered rate.

// The SLO-rate grid: fixed_rps * kGridStep^k for k in [grid_min, grid_max].
constexpr double kGridStep = 1.025;

struct Workload {
  const char* name;
  double fixed_rps;
  double limit_us;  // P99.9 limit that slo_rate_rps must meet.
  SimDuration warmup_ns;
  // Window of the one run the simulated end-to-end metrics come from; long
  // enough for a steady P50 and P99.9.
  SimDuration measure_ns;
  // Window of every other run: the timed repeats, the checked run, the
  // traced run and the SLO-grid probes.
  SimDuration short_ns;
  int grid_min;
  int grid_max;
  // Grid index the SLO search starts from. It sets only how many probes the
  // search needs, never its result.
  int grid_hint;
  std::function<std::unique_ptr<Application>()> make_app;
  std::function<SystemConfig(uint64_t seed)> make_config;
};

SystemConfig AdiosPreset(uint64_t seed) {
  SystemConfig c = SystemConfig::Adios();
  c.seed = seed;
  return c;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  // Paper Fig. 7: every remote request faults once; the engine, dispatch and
  // the read-fetch path dominate both clocks.
  w.push_back(Workload{
      "array-uniform", 1.5e6, 50.0,
      Milliseconds(8), Milliseconds(60), Milliseconds(20), -12, 32, 22,
      [] {
        ArrayApp::Options o;
        o.entries = 1u << 20;
        o.entry_bytes = 64;
        return std::make_unique<ArrayApp>(o);
      },
      AdiosPreset});
  // TPC-C on real B-trees: long transactions, many faults, dirty write-back.
  w.push_back(Workload{
      "silo-tpcc", 200e3, 1000.0,
      Milliseconds(8), Milliseconds(400), Milliseconds(100), -12, 40, 30,
      [] {
        SiloApp::Options o;
        o.warehouses = 4;
        return std::make_unique<SiloApp>(o);
      },
      AdiosPreset});
  // The only workload where retry/deadline, failover/re-silver, checksum,
  // prefetch and link-class layers do work.
  w.push_back(Workload{
      "rocksdb-faulty", 1.0e6, 250.0,
      Milliseconds(8), Milliseconds(60), Milliseconds(20), -12, 32, 22,
      [] {
        RocksDbApp::Options o;
        o.num_keys = 1u << 18;
        o.value_bytes = 1024;
        o.scan_fraction = 0.01;
        o.scan_length = 100;
        return std::make_unique<RocksDbApp>(o);
      },
      [](uint64_t seed) {
        SystemConfig c = AdiosPreset(seed);
        c.replication.num_nodes = 2;
        c.replication.replicas = 2;
        c.retry.enabled = true;
        c.fault.read_loss_rate = 1e-3;
        c.fault.corrupt_rate = 1e-4;
        c.fault.seed = seed * 1000003 + 99;
        // A 2 ms blackout of node 0, 5 ms into the measurement window.
        c.fault.blackout_node = 0;
        c.fault.blackout_start_ns = Milliseconds(8 + 5);
        c.fault.blackout_duration_ns = Milliseconds(2);
        c.integrity.verify = true;
        c.integrity.scrub = true;
        c.sched.prefetch_window = 8;
        c.sched.prefetch_policy = PrefetchPolicy::kAdaptive;
        c.fabric.link_classes = kNumTrafficClasses;
        return c;
      }});
  return w;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: a decorator around the workload's Application and the
// WorkerApi its handler sees. Each request gets an apps.handle span with
// mem.access and sched.compute children, in simulated ns; mem.access also
// records host ns when the access did not suspend (simulated time did not
// move across the call).

struct BenchSpan {
  enum Kind : uint8_t { kHandle, kAccess, kCompute };
  Kind kind;
  uint64_t request_id;
  SimTime begin;
  SimTime end;
  int64_t host_ns;  // mem.access that did not suspend; -1 otherwise.
};

struct SpanLog {
  const Engine* engine = nullptr;
  // Requests that arrived in [keep_from, keep_until) keep their spans for the
  // Perfetto trace; every request feeds the counters.
  SimTime keep_from = 0;
  SimTime keep_until = 0;
  std::vector<BenchSpan> spans;
  uint64_t handles = 0;
  uint64_t accesses = 0;
  uint64_t access_hits = 0;
  int64_t hit_host_ns = 0;
};

class SpanApi final : public WorkerApi {
 public:
  SpanApi(WorkerApi& inner, SpanLog& log, bool keep) : inner_(inner), log_(log), keep_(keep) {}

  void Access(RemoteAddr addr, uint64_t len, bool write) override {
    const SimTime begin = log_.engine->now();
    const Clock::time_point h0 = Clock::now();
    inner_.Access(addr, len, write);
    const Clock::time_point h1 = Clock::now();
    const SimTime end = log_.engine->now();
    ++log_.accesses;
    int64_t host_ns = -1;
    if (end == begin) {
      host_ns = NsBetween(h0, h1);
      ++log_.access_hits;
      log_.hit_host_ns += host_ns;
    }
    if (keep_) {
      log_.spans.push_back({BenchSpan::kAccess, inner_.request()->id, begin, end, host_ns});
    }
  }

  void Compute(uint64_t cycles) override {
    const SimTime begin = log_.engine->now();
    inner_.Compute(cycles);
    if (keep_) {
      log_.spans.push_back(
          {BenchSpan::kCompute, inner_.request()->id, begin, log_.engine->now(), -1});
    }
  }

  void MaybePreempt() override { inner_.MaybePreempt(); }
  RemoteRegion* region() override { return inner_.region(); }
  Request* request() override { return inner_.request(); }
  Rng& rng() override { return inner_.rng(); }

 private:
  WorkerApi& inner_;
  SpanLog& log_;
  bool keep_;
};

// Forwards to the workload's app. Always times Setup and counts Verify
// failures (answering true, so a failure is reported by name here instead of
// aborting inside the load generator); records spans when given a log.
class BenchApp final : public Application {
 public:
  BenchApp(std::unique_ptr<Application> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const char* name() const override { return inner_->name(); }
  uint64_t WorkingSetBytes() const override { return inner_->WorkingSetBytes(); }

  void Setup(RemoteHeap& heap) override {
    const Clock::time_point t0 = Clock::now();
    inner_->Setup(heap);
    setup_s_ += SecondsSince(t0);
  }

  void FillRequest(Rng& rng, Request* req) override { inner_->FillRequest(rng, req); }

  void Handle(Request* req, WorkerApi& api) override {
    if (log_ == nullptr) {
      inner_->Handle(req, api);
      return;
    }
    const bool keep =
        req->arrive_time >= log_->keep_from && req->arrive_time < log_->keep_until;
    const SimTime begin = log_->engine->now();
    SpanApi span_api(api, *log_, keep);
    inner_->Handle(req, span_api);
    ++log_->handles;
    if (keep) {
      log_->spans.push_back({BenchSpan::kHandle, req->id, begin, log_->engine->now(), -1});
    }
  }

  uint32_t NumOpTypes() const override { return inner_->NumOpTypes(); }
  const char* OpName(uint32_t op) const override { return inner_->OpName(op); }

  bool Verify(const Request& req) const override {
    ++verified_;
    if (!inner_->Verify(req)) {
      ++verify_failures_;
    }
    return true;
  }

  double setup_s() const { return setup_s_; }
  uint64_t verified() const { return verified_; }
  uint64_t verify_failures() const { return verify_failures_; }

 private:
  std::unique_ptr<Application> inner_;
  SpanLog* log_;
  double setup_s_ = 0.0;
  mutable uint64_t verified_ = 0;
  mutable uint64_t verify_failures_ = 0;
};

// ---------------------------------------------------------------------------
// One run: a fresh app + MdSystem at one offered rate.

// Everything the simulated clock produced that two runs of one seed must
// reproduce exactly.
struct Fingerprint {
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t failed = 0;
  uint64_t measured = 0;
  uint64_t events = 0;
  uint64_t samples_hash = 0;  // FNV-1a over (id, e2e_ns) of every sample.

  bool operator==(const Fingerprint&) const = default;
};

struct RunOut {
  RunResult r;
  Fingerprint fp;
  double setup_s = 0.0;  // App construction + MdSystem construction (host).
  double run_s = 0.0;    // MdSystem::Run (host).
};

LoadGenerator::Options LoadOptions(uint32_t verify_every) {
  LoadGenerator::Options o;
  o.max_samples = 1u << 23;
  o.verify_every = verify_every;
  return o;
}

Fingerprint FingerprintOf(const RunResult& r, uint64_t events) {
  Fingerprint fp{r.sent, r.completed, r.dropped, r.requests_failed, r.measured, events, 0};
  uint64_t h = 1469598103934665603ull;
  for (const RequestSample& s : r.samples) {
    for (uint64_t word : {s.id, s.e2e_ns}) {
      h = (h ^ word) * 1099511628211ull;
    }
  }
  fp.samples_hash = h;
  return fp;
}

// Untraced run of the bare workload app (no decorator).
RunOut RunUntraced(const Workload& w, uint64_t seed, double rps, SimDuration measure_ns) {
  RunOut out;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Application> app = w.make_app();
  MdSystem sys(w.make_config(seed), app.get());
  out.setup_s = SecondsSince(t0);
  const LoadGenerator::Options lo = LoadOptions(64);
  const Clock::time_point t1 = Clock::now();
  out.r = sys.Run(rps, w.warmup_ns, measure_ns, &lo);
  out.run_s = SecondsSince(t1);
  out.fp = FingerprintOf(out.r, sys.engine().events_processed());
  return out;
}

// Other tenants of a shared host slow this process by up to 1.8x, in phases
// from under a second to minutes. Two fixed kernels, timed in the same
// process around every timed run, slow with it: the host metrics are divided
// by them. Neither calls into src/, so a change to the simulator moves only
// the numerators.
struct HostSpeed {
  double heap_s = 0.0;   // ReferenceKernelS: tracks MdSystem::Run.
  double fault_s = 0.0;  // PageFaultKernelS: tracks set-up.
};

// Host seconds of a fixed CPU-bound kernel shaped like the simulator's
// event engine: pops and pushes on a binary min-heap of 64 K event times.
double ReferenceKernelS() {
  constexpr size_t kHeap = 1u << 16;
  constexpr int kOps = 2000000;
  // Allocated once and never freed, so the kernel leaves malloc's state, and
  // with it the simulator's allocations and peak RSS, as they were.
  static std::vector<uint64_t> heap(kHeap);
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint64_t& t : heap) {
    t = next();
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const Clock::time_point t0 = Clock::now();
  uint64_t acc = 0;
  for (int i = 0; i < kOps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    acc += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double s = SecondsSince(t0);
  ADIOS_CHECK(acc != 0);  // Keeps the loop from being optimised away.
  return s;
}

// Host seconds to map 128 MB of fresh anonymous memory, touch every page and
// unmap it: set-up is mostly allocation and first touch. The mapping is
// outside malloc's heap and is gone when the call returns.
double PageFaultKernelS() {
  constexpr size_t kBytes = size_t{128} << 20;
  const Clock::time_point t0 = Clock::now();
  void* m = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ADIOS_CHECK(m != MAP_FAILED);
  volatile char* p = static_cast<char*>(m);
  for (size_t i = 0; i < kBytes; i += 4096) {
    p[i] = 1;
  }
  munmap(m, kBytes);
  return SecondsSince(t0);
}

HostSpeed MeasureHostSpeed() { return {ReferenceKernelS(), PageFaultKernelS()}; }

// setup_s is reported in seconds on a nominal host, one on which
// PageFaultKernelS takes this long (about its median on a 4-core Xeon VM).
constexpr double kNominalFaultS = 0.064;

// Latency tail with every failed or dropped request counted as missing any
// limit (an infinite latency).
struct Tail {
  double p50_us = 0.0;
  double p999_us = 0.0;  // +inf when misses reach past the 99.9th rank.
  uint64_t n = 0;        // Measured requests, misses included.
  double fail_frac = 0.0;
};

Tail TailOf(const RunResult& r) {
  ADIOS_CHECK(r.samples.size() < LoadOptions(0).max_samples);
  std::vector<uint64_t> lat;
  lat.reserve(r.samples.size());
  for (const RequestSample& s : r.samples) {
    lat.push_back(s.e2e_ns);
  }
  // Measured error replies carry no sample; drops are counted over the whole
  // run, which can only overstate the misses.
  const uint64_t misses = (r.measured - r.samples.size()) + r.dropped;
  lat.insert(lat.end(), misses, UINT64_MAX);
  Tail t;
  t.n = lat.size();
  t.p50_us = PercentileUs(lat, 50.0);
  const uint64_t p999 = NearestRank(lat, 99.9);
  t.p999_us = p999 == UINT64_MAX ? INFINITY : static_cast<double>(p999) / 1000.0;
  t.fail_frac = r.sent == 0 ? 0.0
                            : static_cast<double>(r.dropped + r.requests_failed) /
                                  static_cast<double>(r.sent);
  return t;
}

// ---------------------------------------------------------------------------
// Unithread switch cost: AdiosContextSwitch round trips between two contexts.

struct SwitchRig {
  UnithreadContext main_ctx;
  UnithreadContext thread_ctx;
  std::vector<std::byte> stack = std::vector<std::byte>(64 * 1024);
};

void SwitchEntry(void* arg) {
  auto* rig = static_cast<SwitchRig*>(arg);
  for (;;) {
    AdiosContextSwitch(&rig->thread_ctx, &rig->main_ctx);
  }
}

// Median host ns per switch (half a round trip) over several trials.
double MeasureSwitchNs() {
  constexpr int kRounds = 200000;
  SwitchRig rig;
  rig.thread_ctx.Reset(rig.stack.data(), rig.stack.size(), &SwitchEntry, &rig, &rig.main_ctx);
  for (int i = 0; i < 10000; ++i) {
    AdiosContextSwitch(&rig.main_ctx, &rig.thread_ctx);
  }
  std::vector<double> trials;
  for (int t = 0; t < 7; ++t) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      AdiosContextSwitch(&rig.main_ctx, &rig.thread_ctx);
    }
    trials.push_back(static_cast<double>(NsBetween(t0, Clock::now())) / (2.0 * kRounds));
  }
  return Median(trials);
}

// Cost of one back-to-back pair of steady_clock reads, subtracted from the
// per-access host time.
double ClockPairNs() {
  constexpr int kPairs = 100000;
  int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point a = Clock::now();
    total += NsBetween(a, Clock::now());
  }
  return static_cast<double>(total) / kPairs;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // "sim" or "host".
  // False for metrics printed on the metric lines only, not in the JSON
  // result: latency percentiles that sit on a fixed-cost atom (or are not
  // defined on every workload) read the same on every seed.
  bool listed = true;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %18.6f %-8s [%s]%s\n", m.name.c_str(), m.value, m.unit, m.clock,
                m.listed ? "" : " (not in the JSON result)");
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.listed) {
      continue;
    }
    ADIOS_CHECK(std::isfinite(m.value));
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

// Appends the benchmark-side spans to a Chrome-trace JSON written by
// ExportChromeTrace, on their own async lanes (cat "bench", one per request).
bool AppendBenchSpans(const std::string& path, std::vector<BenchSpan> spans) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return false;
  }
  // ExportChromeTrace ends the file with "\n]}\n"; reopen the array there.
  char tail[5] = {};
  if (std::fseek(f, -4, SEEK_END) != 0 || std::fread(tail, 1, 4, f) != 4 ||
      std::strcmp(tail, "\n]}\n") != 0 || std::fseek(f, -4, SEEK_END) != 0) {
    std::fclose(f);
    return false;
  }
  // Per request: the handle span opens first and closes last around its
  // children, which run one after another on the request's unithread.
  std::sort(spans.begin(), spans.end(), [](const BenchSpan& a, const BenchSpan& b) {
    if (a.request_id != b.request_id) {
      return a.request_id < b.request_id;
    }
    if ((a.kind == BenchSpan::kHandle) != (b.kind == BenchSpan::kHandle)) {
      return a.kind == BenchSpan::kHandle;
    }
    return a.begin < b.begin;
  });
  auto event = [f](char ph, const BenchSpan& s, SimTime t) {
    static const char* const kNames[] = {"apps.handle", "mem.access", "sched.compute"};
    std::fprintf(f,
                 ",\n{\"ph\":\"%c\",\"cat\":\"bench\",\"id\":%llu,\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"name\":\"%s\"",
                 ph, static_cast<unsigned long long>(s.request_id),
                 static_cast<double>(t) / 1000.0, kNames[s.kind]);
    if (ph == 'e' && s.host_ns >= 0) {
      std::fprintf(f, ",\"args\":{\"host_ns\":%lld}", static_cast<long long>(s.host_ns));
    }
    std::fputc('}', f);
  };
  for (size_t i = 0; i < spans.size();) {
    size_t j = i + 1;
    while (j < spans.size() && spans[j].request_id == spans[i].request_id) {
      ++j;
    }
    const bool has_handle = spans[i].kind == BenchSpan::kHandle;
    if (has_handle) {
      event('b', spans[i], spans[i].begin);
    }
    for (size_t k = has_handle ? i + 1 : i; k < j; ++k) {
      event('b', spans[k], spans[k].begin);
      event('e', spans[k], spans[k].end);
    }
    if (has_handle) {
      event('e', spans[i], spans[i].end);
    }
    i = j;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// Keeps the records of requests that arrived in [from, until), plus the
// system-level records in that window, so the Perfetto file stays small.
void CopyWindow(const Tracer& src, SimTime from, SimTime until, Tracer* dst) {
  std::unordered_set<uint64_t> ids;
  for (const TraceRecord& rec : src.records()) {
    if (rec.event == TraceEvent::kArrive && rec.time >= from && rec.time < until) {
      ids.insert(rec.request_id);
    }
  }
  dst->Enable(src.records().size());
  for (const TraceRecord& rec : src.records()) {
    const bool keep = rec.request_id == 0 ? rec.time >= from && rec.time < until
                                          : ids.count(rec.request_id) != 0;
    if (keep) {
      dst->Record(rec.time, rec.request_id, rec.event, rec.arg);
    }
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: adios_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }
  // Line-buffered, so the output up to a crash is not lost in a pipe.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const std::vector<Workload> all = Workloads();
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  std::vector<std::string> failed_checks;
  auto check = [&failed_checks](bool ok, const std::string& what) {
    if (!ok) {
      failed_checks.push_back(what);
      std::printf("check FAILED: %s\n", what.c_str());
    }
  };

  // 1. Timed runs: untraced, at the fixed rate over the short window,
  //    repeated for --seconds of host time. Every repeat uses the same seed,
  //    so each is also a determinism check against the first. The host
  //    metrics are medians over the repeats. Each Run is divided by the mean
  //    of the heap kernel's times just before and just after it, and each
  //    set-up by the mean of the page-fault kernel's, which cancels most of
  //    the host's changing speed.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<HostSpeed> speed;
  std::vector<double> run_per_ref;
  std::vector<double> setup_per_fault;
  RunOut base;
  const Clock::time_point measure_start = Clock::now();
  speed.push_back(MeasureHostSpeed());
  do {
    RunOut run = RunUntraced(w, args.seed, w.fixed_rps, w.short_ns);
    speed.push_back(MeasureHostSpeed());
    const HostSpeed& before = speed[speed.size() - 2];
    const HostSpeed& after = speed.back();
    setup_s.push_back(run.setup_s);
    run_s.push_back(run.run_s);
    run_per_ref.push_back(run.run_s / ((before.heap_s + after.heap_s) / 2.0));
    setup_per_fault.push_back(run.setup_s / ((before.fault_s + after.fault_s) / 2.0));
    std::printf("timed run %zu: setup %.4f s, Run %.4f s, heap kernel %.4f s, page-fault kernel "
                "%.4f s\n",
                run_s.size(), run.setup_s, run.run_s, after.heap_s, after.fault_s);
    if (setup_s.size() == 1) {
      base = std::move(run);
    } else {
      check(run.fp == base.fp, "determinism: repeat " + std::to_string(setup_s.size()) +
                                   " of seed " + std::to_string(args.seed) +
                                   " changed the simulated results");
    }
  } while (setup_s.size() < 3 || SecondsSince(measure_start) < args.seconds);
  const double run_median_s = Median(run_s);
  const double sim_req_per_ref = static_cast<double>(base.r.completed) / Median(run_per_ref);
  const double nominal_setup_s = Median(setup_per_fault) * kNominalFaultS;
  std::vector<double> heap_s;
  std::vector<double> fault_s;
  for (const HostSpeed& h : speed) {
    heap_s.push_back(h.heap_s);
    fault_s.push_back(h.fault_s);
  }

  // 2. The simulated end-to-end metrics: one untraced run over the long window.
  const RunOut full = RunUntraced(w, args.seed, w.fixed_rps, w.measure_ns);
  const RunResult& r = full.r;
  const Tail tail = TailOf(r);
  std::printf("workload %s seed %llu at %.0f req/s: %zu timed runs, host s per Run min %.3f "
              "median %.3f max %.3f, per setup min %.3f median %.3f; kernel medians heap "
              "%.3f page-fault %.4f; medians Run / heap %.3f, setup / page-fault %.3f\n",
              w.name, static_cast<unsigned long long>(args.seed), w.fixed_rps, run_s.size(),
              *std::min_element(run_s.begin(), run_s.end()), run_median_s,
              *std::max_element(run_s.begin(), run_s.end()),
              *std::min_element(setup_s.begin(), setup_s.end()), Median(setup_s),
              Median(heap_s), Median(fault_s), Median(run_per_ref), Median(setup_per_fault));
  check(std::isfinite(tail.p999_us), "fixed rate: failed or dropped requests reach P99.9");
  check(tail.n >= 10000, "fixed rate: fewer than 10,000 measured requests");
  check(r.integrity.unrepairable == 0, "integrity.unrepairable > 0");
  check(r.integrity.served_corrupt == 0, "integrity.served_corrupt > 0");

  // 3. One checked run, outside the timed runs, over the short window: the
  //    invariant checker audits the whole run, and every measured reply goes
  //    through Verify.
  {
    BenchApp app(w.make_app(), nullptr);
    SystemConfig cfg = w.make_config(args.seed);
    cfg.check.enabled = true;
    cfg.check.fatal = false;
    MdSystem sys(cfg, &app);
    const LoadGenerator::Options lo = LoadOptions(1);
    sys.Run(w.fixed_rps, w.warmup_ns, w.short_ns, &lo);
    const uint64_t violations = sys.invariant_checker()->report().violations;
    std::printf("checked run: %llu invariant violations, %llu/%llu replies failed Verify\n",
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(app.verify_failures()),
                static_cast<unsigned long long>(app.verified()));
    check(violations == 0, "invariant checker reported violations");
    check(app.verify_failures() == 0, "replies failed Application::Verify");
    check(app.verified() > 0, "no reply was verified");
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // 4. SLO rate: the highest grid rate whose P99.9 (misses included) meets
    //    the limit, assuming the tail grows with the offered rate. The search
    //    gallops from the hint to bracket the boundary, then bisects.
    //    Probes past a cliff are the expensive ones, so it steps up slowly.
    auto meets = [&](int k) {
      const double rps = w.fixed_rps * std::pow(kGridStep, k);
      // Flushed first, so a probe that kills the process is named by the
      // last line of the output.
      std::printf("slo probe: %.0f req/s -> ", rps);
      std::fflush(stdout);
      const Tail t = TailOf(RunUntraced(w, args.seed, rps, w.short_ns).r);
      std::printf("P99.9 %.2f us (limit %.0f us)\n", t.p999_us, w.limit_us);
      return t.p999_us <= w.limit_us;
    };
    int lo = w.grid_min - 1;  // Highest index known to pass (or below the grid).
    int hi = w.grid_max + 1;  // Lowest index known to fail (or above the grid).
    if (meets(w.grid_hint)) {
      lo = w.grid_hint;
      for (int step = 1; lo + step <= w.grid_max; step *= 2) {
        if (!meets(lo + step)) {
          hi = lo + step;
          break;
        }
        lo += step;
      }
    } else {
      hi = w.grid_hint;
      for (int step = 1; hi - step >= w.grid_min; step *= 2) {
        if (meets(hi - step)) {
          lo = hi - step;
          break;
        }
        hi -= step;
      }
    }
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      (meets(mid) ? lo : hi) = mid;
    }
    if (lo < w.grid_min || lo == w.grid_max) {
      std::printf("slo_rate_rps is clamped to the %s of the grid\n",
                  lo < w.grid_min ? "floor" : "ceiling");
    }
    const double slo_rps = w.fixed_rps * std::pow(kGridStep, std::max(lo, w.grid_min));

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"p50_us", tail.p50_us, "us", "sim"},
        {"p999_us", tail.p999_us, "us", "sim"},
        {"ok_frac", 1.0 - tail.fail_frac, "fraction", "sim"},
        {"slo_rate_rps", slo_rps, "req/s", "sim"},
        {"sim_req_per_ref", sim_req_per_ref, "req/ref", "host"},
        {"setup_s", nominal_setup_s, "s", "host"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", "host"},
    };
    std::printf("p999_us measured over %llu requests; fail_frac %.6g\n",
                static_cast<unsigned long long>(tail.n), tail.fail_frac);
  } else {
    // 4. Traced run: same seed, rate and window as the timed runs, tracer on,
    //    spans recorded by the decorator. Per-layer metrics come from here.
    const double switch_ns = MeasureSwitchNs();
    const double clock_pair_ns = ClockPairNs();
    SpanLog log;
    log.keep_from = w.warmup_ns;
    log.keep_until = w.warmup_ns + Milliseconds(1);
    BenchApp app(w.make_app(), &log);
    const Clock::time_point b0 = Clock::now();
    MdSystem sys(w.make_config(args.seed), &app);
    const double build_s = SecondsSince(b0) - app.setup_s();
    log.engine = &sys.engine();
    sys.tracer().Enable(static_cast<size_t>(base.fp.events) * 2);
    const LoadGenerator::Options lo = LoadOptions(64);
    const Clock::time_point t0 = Clock::now();
    const RunResult tr = sys.Run(w.fixed_rps, w.warmup_ns, w.short_ns, &lo);
    const double traced_run_s = SecondsSince(t0);
    check(FingerprintOf(tr, sys.engine().events_processed()) == base.fp,
          "traced run's simulated results differ from the untraced run's");
    check(sys.tracer().dropped() == 0, "tracer dropped records");
    check(app.verify_failures() == 0, "replies failed Application::Verify in the traced run");

    const Clock::time_point s0 = Clock::now();
    const SpanTimeline tl = BuildSpans(sys.tracer());
    const double span_build_s = SecondsSince(s0);
    std::vector<std::string> problems = tl.problems;
    for (const std::string& p : ReconcileSpans(tl, tr.samples)) {
      problems.push_back(p);
    }
    for (size_t i = 0; i < problems.size() && i < 5; ++i) {
      std::printf("span problem: %s\n", problems[i].c_str());
    }
    check(problems.empty(), "BuildSpans/ReconcileSpans reported problems");

    std::vector<uint64_t> queue, exec, tx, fetch_stall, frame_stall;
    for (const RequestSpan& s : tl.spans) {
      if (!s.completed) {
        continue;
      }
      queue.push_back(s.queue_ns);
      exec.push_back(s.exec_ns);
      tx.push_back(s.tx_ns);
      for (const SpanSegment& seg : s.segments) {
        if (seg.kind == SegmentKind::kFetchStall) {
          fetch_stall.push_back(seg.ns());
        } else if (seg.kind == SegmentKind::kFrameStall) {
          frame_stall.push_back(seg.ns());
        }
      }
    }

    if (!args.trace_out.empty()) {
      Tracer window;
      CopyWindow(sys.tracer(), log.keep_from, log.keep_until, &window);
      TraceExportOptions eo;
      eo.system_name = std::string("Adios ") + w.name;
      eo.num_workers = sys.config().num_workers;
      eo.num_nodes = sys.config().replication.num_nodes;
      check(ExportChromeTrace(window, eo, args.trace_out) &&
                AppendBenchSpans(args.trace_out, log.spans),
            "writing the Perfetto trace " + args.trace_out);
      std::printf("perfetto trace: %s (requests arriving in the first 1 ms of the window)\n",
                  args.trace_out.c_str());
    }

    const double completed = std::max<double>(1.0, static_cast<double>(tr.completed));
    const double handles = std::max<double>(1.0, static_cast<double>(log.handles));
    const double events = static_cast<double>(sys.engine().events_processed());
    uint64_t injected = 0;
    for (uint32_t n = 0; n < sys.config().replication.num_nodes; ++n) {
      if (const FaultInjector* inj = sys.node_fault_injector(n); inj != nullptr) {
        injected += inj->injected_drops() + inj->injected_nacks() + inj->injected_corruptions();
      }
    }
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    auto link_bytes = [&tr](const char* cls) {
      return tr.metrics.Value("link.class_delivered_bytes", std::string("class=") + cls);
    };
    const double hit_ns =
        ratio(static_cast<double>(log.hit_host_ns), static_cast<double>(log.access_hits));
    metrics = {
        {"sim.events_per_req", events / completed, "count", "sim"},
        {"sim_req_per_wall_s", static_cast<double>(base.r.completed) / run_median_s, "req/s",
         "host"},
        {"sim.host_ns_per_event", run_median_s * 1e9 / static_cast<double>(base.fp.events), "ns",
         "host"},
        {"unithread.switch_ns", switch_ns, "ns", "host"},
        {"sched.yields_per_req", static_cast<double>(tr.worker_yields) / completed, "count",
         "sim"},
        {"sched.queue_mean_us", MeanUs(queue), "us", "sim"},
        {"sched.queue_p50_us", PercentileUs(queue, 50.0), "us", "sim", false},
        {"sched.queue_p999_us", PercentileUs(queue, 99.9), "us", "sim"},
        {"sched.dispatcher_util", tr.dispatcher_utilization, "fraction", "sim"},
        {"sched.worker_util", tr.worker_utilization, "fraction", "sim"},
        {"sched.pf_imbalance", tr.pf_imbalance_stddev, "count", "sim"},
        {"sched.qp_full_stalls", static_cast<double>(tr.qp_full_stalls), "count", "sim"},
        {"apps.setup_s", app.setup_s(), "s", "host"},
        {"apps.exec_mean_us", MeanUs(exec), "us", "sim"},
        {"apps.exec_p50_us", PercentileUs(exec, 50.0), "us", "sim", false},
        {"apps.exec_p999_us", PercentileUs(exec, 99.9), "us", "sim", false},
        {"apps.accesses_per_req", static_cast<double>(log.accesses) / handles, "count", "sim"},
        {"core.build_s", build_s, "s", "host"},
        {"mem.faults_per_req", static_cast<double>(tr.mem.faults) / completed, "count", "sim"},
        {"mem.shared_faults", static_cast<double>(tr.mem.shared_faults), "count", "sim"},
        {"mem.access_hit_ratio",
         ratio(static_cast<double>(log.access_hits), static_cast<double>(log.accesses)),
         "fraction", "sim"},
        {"mem.hit_host_ns", std::max(0.0, hit_ns - clock_pair_ns), "ns", "host"},
        {"mem.evictions_clean", static_cast<double>(tr.mem.evictions_clean), "count", "sim"},
        {"mem.evictions_dirty", static_cast<double>(tr.mem.evictions_dirty), "count", "sim"},
        {"mem.frame_stalls", static_cast<double>(tr.mem.frame_stalls), "count", "sim"},
        {"mem.frame_stall_p999_us", PercentileUs(frame_stall, 99.9), "us", "sim", false},
        {"mem.prefetch_useful_ratio",
         ratio(static_cast<double>(tr.mem.prefetch_hits), static_cast<double>(tr.mem.prefetches)),
         "fraction", "sim"},
        {"rdma.fetch_stall_mean_us", MeanUs(fetch_stall), "us", "sim"},
        {"rdma.fetch_stall_p50_us", PercentileUs(fetch_stall, 50.0), "us", "sim", false},
        {"rdma.fetch_stall_p999_us", PercentileUs(fetch_stall, 99.9), "us", "sim"},
        {"rdma.link_util", tr.rdma_utilization, "fraction", "sim"},
        {"rdma.link_bytes.demand", link_bytes("demand"), "bytes", "sim"},
        {"rdma.link_bytes.prefetch", link_bytes("prefetch"), "bytes", "sim"},
        {"rdma.link_bytes.background", link_bytes("background"), "bytes", "sim"},
        {"rdma.fetch_retries", static_cast<double>(tr.fetch_retries), "count", "sim"},
        {"rdma.fetch_timeouts", static_cast<double>(tr.fetch_timeouts), "count", "sim"},
        {"rdma.retry_useful_ratio",
         ratio(static_cast<double>(injected), static_cast<double>(tr.fetch_retries)), "fraction",
         "sim"},
        {"rdma.failovers", static_cast<double>(tr.failovers), "count", "sim"},
        {"rdma.pages_resilvered", static_cast<double>(tr.pages_resilvered), "count", "sim"},
        {"rdma.writeback_retries", static_cast<double>(tr.writeback_retries), "count", "sim"},
        {"integrity.detected", static_cast<double>(tr.integrity.detected), "count", "sim"},
        {"integrity.repaired", static_cast<double>(tr.integrity.repaired), "count", "sim"},
        {"integrity.scrub_pages", static_cast<double>(tr.integrity.scrub_pages), "count", "sim"},
        {"net.tx_p999_us", PercentileUs(tx, 99.9), "us", "sim", false},
        {"net.dropped", static_cast<double>(tr.dropped), "count", "sim"},
        {"net.failed", static_cast<double>(tr.requests_failed), "count", "sim"},
        {"net.fail_frac", tail.fail_frac, "fraction", "sim"},
        {"obs.trace_overhead_frac", traced_run_s / run_median_s - 1.0, "fraction", "host"},
        {"obs.span_build_s", span_build_s, "s", "host"},
    };
    for (const OpResult& op : tr.ops) {
      if (tr.ops.size() > 1) {
        metrics.push_back({std::string("apps.op_p999_us.") + op.name,
                           static_cast<double>(op.e2e.P999()) / 1000.0, "us", "sim", false});
      }
    }
  }

  PrintMetrics(metrics);
  const bool correct = failed_checks.empty();
  PrintResult(correct, r.sent, r.dropped + r.requests_failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace adios

int main(int argc, char** argv) { return adios::Main(argc, argv); }
