// vupbench: the repository benchmark. One process, one seed, three
// phases that drive the library only through its public entry points:
//
//   nightly     report batch in -> served prediction out, every night:
//               wire Feed + Checkpoint -> BuildDataset -> Train ->
//               publish a generation -> open the registry -> Predict.
//   backtest    the paper's sliding-window next-day walk-forward with
//               daily retrain (Section 4.1), four ML algorithms.
//   serve_zipf  a large synthetic fleet behind a sharded, byte-budgeted
//               registry: open-loop Poisson/Zipf windows and closed-loop
//               bulk slices.
//
// Every run executes all three phases, so every end-to-end metric is
// measured on every workload; --workload names the phase that gets the
// run's --seconds of work, the other two get a fixed companion share. With
// --trace 1 the first half of every phase's units runs untraced and the
// rest traced, and the per-layer metrics come from the traced half. See
// perfbench/README.md.
//
// Usage: vupbench --workload nightly|backtest|serve_zipf --seed N
//                 --seconds S --trace 0|1 --work-dir DIR --cache-dir DIR
// The last stdout line is the JSON result; exit 0 when it was printed.

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/ingest.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "telemetry/engine_sim.h"
#include "telemetry/fleet.h"
#include "wire/frame.h"
#include "wire/stream_ingestor.h"

#include "loadgen.h"

namespace vup::bench {
namespace {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload shape. Fixed here, never taken from the command line.

// The fleet, its vehicles and their replayed history are fixed: training
// cost and forecast error differ far more between vehicles, and between
// stretches of one vehicle's history, than a code change moves them, so a
// seed-chosen fleet would drown every comparison. The seed drives the
// serving id permutation, Zipf stream and Poisson schedule, and every
// sampled correctness check.
constexpr uint64_t kFleetSeed = 42;
constexpr size_t kFleetVehicles = 64;

// nightly: V vehicles, each backfilled with lookback + training window
// days of raw reports, then one simulated day per night.
constexpr size_t kNightlyVehicles = 8;
constexpr size_t kLookback = 140;     // Code default w.
constexpr size_t kTrainWindow = 140;  // Code default TW.
constexpr size_t kBackfillDays = kLookback + kTrainWindow;
constexpr size_t kMaxNights = 160;
// Forecasts of the first kPeNights nights enter forecast_pe_pct; a run
// always completes one more night so they all have their actuals.
constexpr size_t kPeNights = 4;

// backtest: B vehicles x 4 algorithms, one walk-forward step per round.
constexpr size_t kBacktestVehicles = 4;
constexpr size_t kEvalDays = 120;  // Code default eval span.
constexpr size_t kPeRounds = 8;    // Rounds entering forecast_pe_pct.
constexpr size_t kBacktestChecks = 8;

// serve_zipf: a synthetic fleet stamped from four templates, served from
// a byte budget that holds about a quarter of it.
constexpr size_t kServeFleet = 1000;
constexpr size_t kServeShards = 8;
constexpr size_t kServeCacheBytes = 1 << 20;
constexpr double kZipfExponent = 1.2;
constexpr double kOpenLoopRate = 5000.0;  // Requests per second.
constexpr double kOpenLoopWindow = 0.25;  // Seconds per open-loop window.
constexpr double kBulkSlice = 0.1;        // Seconds per bulk slice.
constexpr size_t kBulkBatch = 256;
constexpr size_t kWarmupRequests = 20000;
constexpr size_t kServeChecks = 32;
// Documented compact-vs-text prediction ceiling for float32 payloads
// (DESIGN.md section 15); LR must match bitwise.
constexpr double kCompactCeiling = 0.05;

constexpr int kSetupRepeats = 5;

// Independent streams forked from the --seed generator.
constexpr uint64_t kBacktestCheckStream = 1;
constexpr uint64_t kIdPermutationStream = 2;
constexpr uint64_t kIdStream = 3;
constexpr uint64_t kArrivalStream = 4;
constexpr uint64_t kServeCheckStream = 5;

// --seconds sizes the work, not a deadline: each phase runs a fixed number
// of units, the phase's nominal units per second (its rate on the machine
// the benchmark was written on) times its seconds. A run therefore always
// measures the same nights, rounds and windows, and a slower machine takes
// longer instead of measuring less. The named workload's phase gets
// --seconds, the two companions kCompanionSeconds each.
constexpr double kCompanionSeconds = 6.0;
constexpr double kNightsPerSecond = 8.0;
constexpr double kRoundsPerSecond = 5.0;
constexpr double kServeUnitsPerSecond = 1.0 / (kOpenLoopWindow + kBulkSlice);

const Algorithm kAlgorithms[] = {Algorithm::kLinearRegression,
                                 Algorithm::kLasso, Algorithm::kSvr,
                                 Algorithm::kGradientBoosting};
constexpr size_t kNumAlgorithms = 4;

// ---------------------------------------------------------------------------
// Small helpers.

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

template <typename F>
double Timed(F&& f) {
  const auto t0 = SteadyClock::now();
  f();
  return SecondsSince(t0);
}

struct Mean {
  double sum = 0.0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Get() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

/// Nearest-rank quantile `q` of `v` (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))), 1,
      v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Throughput is reported per repeated unit of the same work (a night, a
/// round, a batch) as the 90th percentile of the unit rates, and latency as
/// the 10th percentile of the open-loop windows' percentiles: the best
/// decile. On a shared machine the neighbours' load comes and goes in
/// bursts of seconds; a code change moves every unit and every window, a
/// burst only some of them.
double UnitRate(const std::vector<double>& unit_rates) {
  return Quantile(unit_rates, 0.9);
}
double WindowLatency(const std::vector<double>& window_percentiles) {
  return Quantile(window_percentiles, 0.1);
}

/// Operations one phase attempted, and the ones that failed (an op that
/// errors or a correctness check that does not hold).
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  void Ok() { ++attempted; }
  void Fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (messages.size() < 8) messages.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (ok) {
      Ok();
    } else {
      Fail(what);
    }
  }
};

/// Records `next` in `*status` unless an earlier error is already there.
void KeepFirst(Status* status, Status next) {
  if (status->ok()) *status = std::move(next);
}

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// Peak resident set of this process (Linux reports ru_maxrss in KiB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Writes back the file system's dirty pages, untimed, so that disk
/// write-back started by one timed step does not land in the next one.
void FlushWrites(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

std::string AlgName(Algorithm a) { return std::string(AlgorithmToString(a)); }

ForecasterConfig DefaultConfig(Algorithm a) {
  ForecasterConfig config;  // Code defaults: w = 140, K = 20.
  config.algorithm = a;
  return config;
}

/// Forecasts and their actuals, pooled for the paper's PE.
struct Forecasts {
  std::vector<double> predicted;
  std::vector<double> actual;
  void Add(double p, double a) {
    predicted.push_back(p);
    actual.push_back(a);
  }
};

/// Sliding-window builder advances and rebuilds, summed from the global
/// metrics registry (vupred_window_incremental_*_total).
struct WindowCounts {
  double advances = 0.0;
  double rebuilds = 0.0;

  static WindowCounts Now() {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    return {snapshot.Value("vupred_window_incremental_advances_total"),
            snapshot.Value("vupred_window_incremental_rebuilds_total")};
  }
  void AddDelta(const WindowCounts& before, const WindowCounts& after) {
    advances += after.advances - before.advances;
    rebuilds += after.rebuilds - before.rebuilds;
  }
  double AdvanceRatio() const {
    return advances + rebuilds > 0 ? advances / (advances + rebuilds) : 0.0;
  }
};

// Tracer tree queries.

struct SpanTotal {
  uint64_t count = 0;
  double seconds = 0.0;
  void Add(const obs::Tracer::Node& node) {
    count += node.count;
    seconds += node.total_seconds;
  }
  double MeanMs() const {
    return count == 0 ? 0.0 : 1e3 * seconds / static_cast<double>(count);
  }
};

const obs::Tracer::Node* Child(const obs::Tracer::Node& node,
                               std::string_view name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

/// Sums every node named `name` in the subtree under `node`.
void SumNamed(const obs::Tracer::Node& node, std::string_view name,
              SpanTotal* out) {
  for (const auto& child : node.children) {
    if (child->name == name) out->Add(*child);
    SumNamed(*child, name, out);
  }
}

// ---------------------------------------------------------------------------
// Inputs: generated before any set-up is timed.

struct NightlyVehicle {
  VehicleInfo info;
  const Country* country = nullptr;
  Date first_date;
  /// Raw 10-minute reports per day (backfill days then nights), and the
  /// same day encoded as one VUPW frame (empty for a day with no reports).
  std::vector<std::vector<AggregatedReport>> reports;
  std::vector<std::string> frames;
};

struct Template {
  Algorithm algorithm = Algorithm::kLinearRegression;
  std::string text;
  std::string compact;
};

struct Inputs {
  uint64_t seed = 0;
  std::optional<Fleet> fleet;
  std::vector<NightlyVehicle> nightly;
  std::vector<size_t> backtest_indices;
  std::optional<VehicleDataset> serve_dataset;
  std::vector<Template> templates;  // One per algorithm.
};

/// Simulates one day of raw reports per entry of `days` (engine simulator
/// -> on-board aggregator), the costly part of the inputs.
std::vector<std::vector<AggregatedReport>> SimulateReports(
    const Fleet& fleet, size_t index,
    std::span<const DailyUsageRecord> days) {
  EngineSimulator engine = fleet.MakeEngineSimulator(index);
  const int64_t id = fleet.vehicle(index).vehicle_id;
  bool engine_on = false;
  std::vector<std::vector<AggregatedReport>> out;
  for (const DailyUsageRecord& day : days) {
    out.push_back(AggregateDay(engine.SimulateDay(day.date, day.hours), id,
                               day.date, &engine_on));
  }
  return out;
}

// The simulated reports are the same for every seed, so they are cached in
// --cache-dir (run.py empties it whenever the benchmark is rebuilt). The
// file holds every report field bit for bit.
constexpr char kCacheMagic[] = "vupbench-reports-v1\n";

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool Take(std::string_view* in, T* v) {
  if (in->size() < sizeof *v) return false;
  std::memcpy(v, in->data(), sizeof *v);
  in->remove_prefix(sizeof *v);
  return true;
}

std::string EncodeReports(const std::vector<NightlyVehicle>& vehicles) {
  std::string out = kCacheMagic;
  Put<uint64_t>(&out, vehicles.size());
  for (const NightlyVehicle& v : vehicles) {
    Put<uint64_t>(&out, v.reports.size());
    for (const auto& day : v.reports) {
      Put<uint64_t>(&out, day.size());
      for (const AggregatedReport& r : day) {
        Put(&out, r.vehicle_id);
        Put(&out, r.date.day_number());
        Put(&out, r.slot);
        for (double x : {r.engine_on_fraction, r.avg_engine_rpm,
                         r.avg_engine_load_pct, r.avg_fuel_rate_lph,
                         r.avg_oil_pressure_kpa, r.avg_coolant_temp_c,
                         r.avg_speed_kmh, r.avg_hydraulic_temp_c,
                         r.fuel_level_pct, r.engine_hours_total}) {
          Put(&out, x);
        }
        Put(&out, r.dtc_count);
        Put(&out, r.sample_count);
      }
    }
  }
  return out;
}

/// Parses EncodeReports output; false on any mismatch (then the caller
/// simulates afresh).
bool DecodeReports(std::string_view in, size_t days,
                   std::vector<NightlyVehicle>* vehicles) {
  if (in.substr(0, sizeof kCacheMagic - 1) != kCacheMagic) return false;
  in.remove_prefix(sizeof kCacheMagic - 1);
  uint64_t nv = 0;
  if (!Take(&in, &nv) || nv != vehicles->size()) return false;
  for (NightlyVehicle& v : *vehicles) {
    uint64_t nd = 0;
    if (!Take(&in, &nd) || nd != days) return false;
    v.reports.assign(days, {});
    for (auto& day : v.reports) {
      uint64_t nr = 0;
      if (!Take(&in, &nr) || nr > static_cast<uint64_t>(kSlotsPerDay)) {
        return false;
      }
      day.resize(nr);
      for (AggregatedReport& r : day) {
        int32_t day_number = 0;
        bool ok = Take(&in, &r.vehicle_id) && Take(&in, &day_number) &&
                  Take(&in, &r.slot);
        r.date = Date::FromDayNumber(day_number);
        for (double* x : {&r.engine_on_fraction, &r.avg_engine_rpm,
                          &r.avg_engine_load_pct, &r.avg_fuel_rate_lph,
                          &r.avg_oil_pressure_kpa, &r.avg_coolant_temp_c,
                          &r.avg_speed_kmh, &r.avg_hydraulic_temp_c,
                          &r.fuel_level_pct, &r.engine_hours_total}) {
          ok = ok && Take(&in, x);
        }
        ok = ok && Take(&in, &r.dtc_count) && Take(&in, &r.sample_count);
        if (!ok || r.vehicle_id != v.info.vehicle_id) return false;
      }
    }
  }
  return in.empty();
}

Status MakeNightlyInputs(const Fleet& fleet, const std::vector<size_t>& chosen,
                         const std::string& cache_dir, Inputs* in) {
  const size_t days = kBackfillDays + kMaxNights;
  std::vector<VehicleDailySeries> series;
  in->nightly.resize(kNightlyVehicles);
  for (size_t v = 0; v < kNightlyVehicles; ++v) {
    series.push_back(fleet.GenerateDailySeries(chosen[v]));
    if (series[v].days.size() < days) {
      return Status::FailedPrecondition("nightly vehicle history too short");
    }
    NightlyVehicle& nv = in->nightly[v];
    nv.info = series[v].info;
    nv.country = &fleet.CountryOf(nv.info);
    nv.first_date = series[v].days[series[v].days.size() - days].date;
  }

  const std::string cache_path = cache_dir + "/nightly_reports.bin";
  std::string cached;
  {
    std::ifstream file(cache_path, std::ios::binary);
    cached.assign(std::istreambuf_iterator<char>(file), {});
  }
  if (!DecodeReports(cached, days, &in->nightly)) {
    // Engine simulation costs milliseconds per vehicle-day, so vehicles
    // are simulated in parallel; each has its own seeded simulator, so the
    // reports do not depend on the thread count.
    const size_t workers = std::min<size_t>(
        kNightlyVehicles, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t v = w; v < kNightlyVehicles; v += workers) {
          const auto& all = series[v].days;
          in->nightly[v].reports = SimulateReports(
              fleet, chosen[v],
              std::span<const DailyUsageRecord>(all).last(days));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    const std::string tmp = cache_path + ".tmp";
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    file << EncodeReports(in->nightly);
    file.close();
    if (file) fs::rename(tmp, cache_path, ec);
  }
  for (NightlyVehicle& nv : in->nightly) {
    for (const auto& reports : nv.reports) {
      std::string frame;
      if (!reports.empty()) {
        VUP_RETURN_IF_ERROR(
            wire::EncodeFrame(nv.info.vehicle_id, reports, &frame));
      }
      nv.frames.push_back(std::move(frame));
    }
  }
  return Status::OK();
}

Status MakeInputs(uint64_t seed, const std::string& cache_dir, Inputs* in) {
  in->seed = seed;
  in->fleet.emplace(
      Fleet::Generate(FleetConfig::Small(kFleetVehicles, kFleetSeed)));
  const Fleet& fleet = *in->fleet;

  ExperimentRunner runner(&fleet);
  ExperimentOptions select;
  select.max_vehicles = kNightlyVehicles + kBacktestVehicles + 1;
  const std::vector<size_t> chosen = runner.SelectVehicles(select);
  if (chosen.size() < select.max_vehicles) {
    return Status::FailedPrecondition("too few eligible vehicles");
  }
  VUP_RETURN_IF_ERROR(MakeNightlyInputs(fleet, chosen, cache_dir, in));
  for (size_t b = 0; b < kBacktestVehicles; ++b) {
    in->backtest_indices.push_back(chosen[kNightlyVehicles + b]);
  }

  // Serving templates, trained like `vupred serve-bench --vehicles`.
  StatusOr<VehicleDataset> ds = PrepareVehicleDataset(fleet, chosen.back());
  VUP_RETURN_IF_ERROR(ds.status());
  in->serve_dataset.emplace(std::move(ds).value());
  const VehicleDataset& tds = *in->serve_dataset;
  for (Algorithm a : kAlgorithms) {
    ForecasterConfig config;
    config.algorithm = a;
    config.windowing.lookback_w = 21;
    config.selection.top_k = 7;
    VehicleForecaster forecaster(config);
    const size_t n = tds.num_days();
    VUP_RETURN_IF_ERROR(forecaster.Train(tds, n - 200, n));
    std::ostringstream text;
    VUP_RETURN_IF_ERROR(forecaster.Save(text));
    StatusOr<std::string> compact = forecaster.SaveCompact();
    VUP_RETURN_IF_ERROR(compact.status());
    in->templates.push_back({a, text.str(), std::move(compact).value()});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// nightly

struct NightlyStats {
  uint64_t vehicles = 0;            // Vehicle-nights completed.
  double seconds = 0.0;             // Wall time of the nights.
  std::vector<double> night_rates;  // Vehicles per second, per night.
  Mean feed, checkpoint, build, publish, open;
  Mean train[kNumAlgorithms];
  uint64_t frames = 0, reports = 0, rejected = 0;
  uint64_t publish_files = 0, publish_bytes = 0;
  WindowCounts window;
  double Rate() const { return UnitRate(night_rates); }
};

/// One forecast waiting for its actual (the next night's data).
struct PendingForecast {
  size_t vehicle = 0;
  size_t target = 0;
  double prediction = 0.0;
  bool scored = false;  // Counts towards forecast_pe_pct.
};

struct NightlyState {
  std::string dir;
  IngestionStore store;  // The ingestor points here: the state never moves.
  std::optional<wire::StreamIngestor> ingestor;
  std::optional<serve::ModelRegistry> publisher;
  size_t nights = 0;
  std::vector<PendingForecast> pending;
  Forecasts pe;
  Ops ops;
};

Status SetUpNightly(const Inputs& in, const std::string& dir,
                    NightlyState* st) {
  st->dir = dir;
  wire::StreamIngestor::Options options;
  options.dir = dir + "/wire";
  StatusOr<wire::StreamIngestor> ingestor =
      wire::StreamIngestor::Open(options, &st->store);
  VUP_RETURN_IF_ERROR(ingestor.status());
  st->ingestor.emplace(std::move(ingestor).value());
  for (const NightlyVehicle& nv : in.nightly) {
    for (size_t d = 0; d < kBackfillDays; ++d) {
      if (!nv.frames[d].empty()) {
        VUP_RETURN_IF_ERROR(st->ingestor->Feed(nv.frames[d]));
      }
    }
  }
  VUP_RETURN_IF_ERROR(st->ingestor->Checkpoint());
  serve::ModelRegistry::Options reg;
  reg.directory = dir + "/registry";
  reg.cache_capacity = 0;
  StatusOr<serve::ModelRegistry> publisher =
      serve::ModelRegistry::Open(std::move(reg));
  VUP_RETURN_IF_ERROR(publisher.status());
  st->publisher.emplace(std::move(publisher).value());
  return Status::OK();
}

/// Runs one night: the five steps on the blocking path are timed as the
/// night; the correctness checks after them are not.
void RunNight(const Inputs& in, bool traced, NightlyState* st,
              NightlyStats* r) {
  const size_t nv = in.nightly.size();
  const size_t day = kBackfillDays + st->nights;
  Ops& ops = st->ops;
  std::vector<std::optional<VehicleDataset>> datasets(nv);
  std::vector<std::optional<VehicleForecaster>> models(nv);
  std::vector<serve::PredictionResponse> served(nv);
  std::string generation_dir;
  const auto wire_before = st->ingestor->stats();
  const WindowCounts window_before =
      traced ? WindowCounts::Now() : WindowCounts();
  Status s;
  const auto night_t0 = SteadyClock::now();
  {
    obs::TraceSpan span("nightly.wire");
    for (const NightlyVehicle& v : in.nightly) {
      if (v.frames[day].empty()) continue;
      r->feed.Add(Timed([&] { KeepFirst(&s, st->ingestor->Feed(v.frames[day])); }));
    }
    r->checkpoint.Add(Timed([&] { KeepFirst(&s, st->ingestor->Checkpoint()); }));
  }
  for (size_t i = 0; i < nv && s.ok(); ++i) {
    const NightlyVehicle& v = in.nightly[i];
    obs::TraceSpan span("nightly.build_dataset");
    StatusOr<VehicleDataset> ds = Status::Internal("unset");
    r->build.Add(Timed([&] {
      ds = st->store.BuildDataset(v.info, *v.country, v.first_date,
                                  v.first_date.AddDays(static_cast<int>(day)));
    }));
    KeepFirst(&s, ds.status());
    if (ds.ok()) datasets[i].emplace(std::move(ds).value());
  }
  for (size_t i = 0; i < nv && s.ok(); ++i) {
    const size_t a = i % kNumAlgorithms;
    obs::TraceSpan span("nightly.train." + AlgName(kAlgorithms[a]));
    models[i].emplace(DefaultConfig(kAlgorithms[a]));
    const size_t n = datasets[i]->num_days();
    r->train[a].Add(Timed([&] {
      KeepFirst(&s, models[i]->Train(*datasets[i], n - kTrainWindow, n));
    }));
  }
  if (s.ok()) {
    obs::TraceSpan span("nightly.publish");
    r->publish.Add(Timed([&] {
      StatusOr<serve::GenerationPublisher> gen =
          st->publisher->NewGeneration();
      KeepFirst(&s, gen.status());
      for (size_t i = 0; i < nv && s.ok(); ++i) {
        KeepFirst(&s, gen.value().Add(in.nightly[i].info.vehicle_id, *models[i]));
      }
      serve::RegistryMeta meta;
      meta.fleet_seed = kFleetSeed;
      meta.fleet_vehicles = nv;
      meta.algorithm = "mixed";
      if (s.ok()) KeepFirst(&s, gen.value().Commit(meta));
      if (s.ok()) generation_dir = gen.value().staging_dir();
    }));
    if (s.ok()) KeepFirst(&s, st->publisher->PruneGenerations(1));
  }
  if (s.ok()) {
    obs::TraceSpan span("nightly.serve");
    serve::ModelRegistry::Options options;
    options.directory = st->dir + "/registry";
    options.cache_capacity = nv;
    StatusOr<serve::ModelRegistry> registry = Status::Internal("unset");
    r->open.Add(Timed([&] {
      registry = serve::ModelRegistry::Open(std::move(options));
    }));
    KeepFirst(&s, registry.status());
    if (registry.ok()) {
      serve::PredictionService service(&registry.value(), nullptr);
      for (size_t i = 0; i < nv; ++i) {
        const serve::PredictionRequest request(in.nightly[i].info.vehicle_id,
                                               &*datasets[i],
                                               datasets[i]->num_days());
        served[i] = service.Predict(request);
      }
    }
  }
  const double night_seconds = SecondsSince(night_t0);
  FlushWrites(st->dir);
  ++st->nights;
  const auto& wire_after = st->ingestor->stats();
  r->frames += wire_after.frames_accepted - wire_before.frames_accepted;
  r->reports += wire_after.reports_accepted - wire_before.reports_accepted;
  r->rejected += wire_after.reports_rejected - wire_before.reports_rejected;
  if (traced) r->window.AddDelta(window_before, WindowCounts::Now());
  if (!s.ok()) {
    ops.Fail("night " + std::to_string(st->nights) + ": " + s.ToString());
    return;
  }
  r->seconds += night_seconds;
  r->vehicles += nv;
  r->night_rates.push_back(static_cast<double>(nv) / night_seconds);

  // The served forecast must equal the offline forecaster bitwise, served
  // by the vehicle's own model.
  for (size_t i = 0; i < nv; ++i) {
    const VehicleDataset& ds = *datasets[i];
    StatusOr<double> offline = models[i]->PredictTarget(ds, ds.num_days());
    const serve::PredictionResponse& resp = served[i];
    ops.Check(offline.ok() && resp.status.ok() &&
                  resp.level == serve::ServedLevel::kVehicle &&
                  SameBits(resp.prediction, offline.value()),
              "nightly served != offline for vehicle " +
                  std::to_string(in.nightly[i].info.vehicle_id));
  }
  // Score yesterday's forecasts against tonight's data.
  for (const PendingForecast& p : st->pending) {
    const VehicleDataset& ds = *datasets[p.vehicle];
    if (p.scored && p.target < ds.num_days()) {
      st->pe.Add(p.prediction, ds.hours()[p.target]);
    }
  }
  st->pending.clear();
  for (size_t i = 0; i < nv; ++i) {
    st->pending.push_back({i, datasets[i]->num_days(), served[i].prediction,
                           st->nights <= kPeNights});
  }
  if (r->publish_files == 0) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(generation_dir, ec)) {
      ++r->publish_files;
      r->publish_bytes += entry.file_size(ec);
    }
  }
}

/// The ingestor's store must hold exactly what a direct IngestBatch of the
/// same (wire-quantized) reports holds.
void CheckNightlyDigest(const Inputs& in, NightlyState* st) {
  IngestionStore direct;
  std::vector<AggregatedReport> batch;
  for (const NightlyVehicle& v : in.nightly) {
    for (size_t d = 0; d < kBackfillDays + st->nights; ++d) {
      for (const AggregatedReport& report : v.reports[d]) {
        batch.push_back(wire::QuantizeForWire(report));
      }
    }
  }
  const Status s = direct.IngestBatch(batch);
  st->ops.Check(s.ok() && direct.ContentDigest() == st->store.ContentDigest(),
                "nightly store digest != direct IngestBatch digest");
}

// ---------------------------------------------------------------------------
// backtest

struct BacktestStats {
  uint64_t fits = 0;
  double seconds = 0.0;
  std::vector<double> round_rates;  // Fits per second, per round.
  Mean predict;
  WindowCounts window;
  double Rate() const { return UnitRate(round_rates); }
};

struct BacktestStep {
  size_t vehicle = 0, algorithm = 0, round = 0;
};

struct BacktestState {
  std::vector<VehicleDataset> datasets;
  std::vector<std::unique_ptr<VehicleForecaster>> models;  // [b * 4 + a]
  size_t round = 0;
  size_t pass = 0;
  std::vector<BacktestStep> checks;
  std::map<size_t, double> check_predictions;  // Keyed by check index.
  Forecasts pe;
  Ops ops;

  /// Target row of walk-forward round `round` on dataset `ds`.
  static size_t Target(const VehicleDataset& ds, size_t round) {
    return ds.num_days() - kEvalDays + round;
  }
};

Status SetUpBacktest(const Inputs& in, BacktestState* st) {
  for (size_t index : in.backtest_indices) {
    StatusOr<VehicleDataset> ds = PrepareVehicleDataset(*in.fleet, index);
    VUP_RETURN_IF_ERROR(ds.status());
    if (ds.value().num_days() < kLookback + kTrainWindow + kEvalDays) {
      return Status::FailedPrecondition("backtest vehicle history too short");
    }
    st->datasets.push_back(std::move(ds).value());
  }
  Rng rng = Rng(in.seed).Fork(kBacktestCheckStream);
  for (size_t c = 0; c < kBacktestChecks; ++c) {
    const int64_t vehicle =
        rng.UniformInt(0, static_cast<int64_t>(st->datasets.size()) - 1);
    const int64_t round = rng.UniformInt(0, kPeRounds - 1);
    st->checks.push_back({static_cast<size_t>(vehicle), c % kNumAlgorithms,
                          static_cast<size_t>(round)});
  }
  return Status::OK();
}

/// One walk-forward step of every (vehicle, algorithm) forecaster: refit
/// on the training window ending at the round's target, then predict it.
void RunRound(bool traced, BacktestState* st, BacktestStats* r) {
  if (st->models.empty() || st->round == kEvalDays) {
    st->models.clear();
    for (size_t b = 0; b < st->datasets.size(); ++b) {
      for (Algorithm a : kAlgorithms) {
        st->models.push_back(
            std::make_unique<VehicleForecaster>(DefaultConfig(a)));
      }
    }
    if (st->round == kEvalDays) ++st->pass;
    st->round = 0;
  }
  const WindowCounts window_before =
      traced ? WindowCounts::Now() : WindowCounts();
  const uint64_t fits_before = r->fits;
  const auto t0 = SteadyClock::now();
  for (size_t b = 0; b < st->datasets.size(); ++b) {
    const VehicleDataset& ds = st->datasets[b];
    const size_t target = BacktestState::Target(ds, st->round);
    for (size_t a = 0; a < kNumAlgorithms; ++a) {
      VehicleForecaster& model = *st->models[b * kNumAlgorithms + a];
      Status s;
      {
        obs::TraceSpan span("backtest.train." + AlgName(kAlgorithms[a]));
        s = model.Train(ds, target - kTrainWindow, target);
      }
      StatusOr<double> p = s.ok() ? Status::Internal("not run") : s;
      if (s.ok()) {
        r->predict.Add(Timed([&] {
          obs::TraceSpan span("backtest.predict");
          p = model.PredictTarget(ds, target);
        }));
      }
      if (!p.ok()) {
        st->ops.Fail("backtest step: " + p.status().ToString());
        continue;
      }
      ++r->fits;
      st->ops.Ok();
      if (st->pass == 0 && st->round < kPeRounds) {
        st->pe.Add(p.value(), ds.hours()[target]);
        for (size_t c = 0; c < st->checks.size(); ++c) {
          const BacktestStep& step = st->checks[c];
          if (step.vehicle == b && step.algorithm == a &&
              step.round == st->round) {
            st->check_predictions[c] = p.value();
          }
        }
      }
    }
  }
  const double seconds = SecondsSince(t0);
  ++st->round;
  r->seconds += seconds;
  r->round_rates.push_back(static_cast<double>(r->fits - fits_before) /
                           seconds);
  if (traced) r->window.AddDelta(window_before, WindowCounts::Now());
}

/// A seeded sample of walk-forward steps, refit on the naive
/// (non-incremental) path, must reproduce the incremental predictions
/// bitwise.
void CheckBacktest(BacktestState* st) {
  for (size_t c = 0; c < st->checks.size(); ++c) {
    const BacktestStep& step = st->checks[c];
    const auto it = st->check_predictions.find(c);
    if (it == st->check_predictions.end()) {
      st->ops.Fail("backtest check step never ran");
      continue;
    }
    const VehicleDataset& ds = st->datasets[step.vehicle];
    const size_t target = BacktestState::Target(ds, step.round);
    ForecasterConfig config = DefaultConfig(kAlgorithms[step.algorithm]);
    config.incremental_training = false;
    VehicleForecaster naive(config);
    const Status s = naive.Train(ds, target - kTrainWindow, target);
    const StatusOr<double> p =
        s.ok() ? naive.PredictTarget(ds, target) : StatusOr<double>(s);
    st->ops.Check(p.ok() && SameBits(p.value(), it->second),
                  "backtest incremental != naive refit (" +
                      AlgName(kAlgorithms[step.algorithm]) + ")");
  }
}

// ---------------------------------------------------------------------------
// serve_zipf

struct ServeStats {
  // Open loop.
  std::vector<double> latency_ms;  // due -> response, per request.
  /// Percentiles of each open-loop window.
  std::vector<double> window_p50_ms, window_p99_ms;
  bool windows_reportable = true;  // Every window met the tail rule.
  Mean queue_wait_ms, generator_lag_ms, batch_size, score_ms;
  // Bulk.
  uint64_t bulk_requests = 0;
  double bulk_seconds = 0.0;
  std::vector<double> batch_rates;  // Requests per second, per bulk batch.
  double BulkRate() const { return UnitRate(batch_rates); }
};

struct ServeState {
  std::string dir;
  std::optional<serve::ModelRegistry> registry;
  // The open loop and the bulk phase share the registry (and its cache)
  // but not the pool; see PinOpenLoop.
  std::unique_ptr<ThreadPool> open_pool, bulk_pool;
  std::unique_ptr<serve::PredictionService> open_service, bulk_service;
  cpu_set_t all_cpus{};  // This process's CPUs.
  cpu_set_t open_cpu{};  // The one the open loop runs on.
  std::vector<int64_t> rank_to_id;  // Zipf rank -> vehicle id (seeded).
  std::optional<perfbench::ZipfSampler> zipf;
  Rng id_stream{0};
  uint64_t arrival_seed = 0;
  std::vector<std::pair<int64_t, double>> sampled;  // (id, served) to check.
  Rng check_rng{0};
  Ops ops;
};

/// Bulk pool workers: nproc - 2, so that the pool, the caller and the
/// rest of the machine never book every vCPU at once.
size_t BulkWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 2 ? n - 2 : 1;
}

/// The open loop sends batches of one or two requests, which one worker
/// scores as fast as several. It runs on a one-worker pool, and the worker
/// and the generator share one CPU (the highest this process may use):
/// spread over vCPUs, each hand-off woke an idle vCPU, which on a shared
/// host waits for the host scheduler, from microseconds to milliseconds.
/// Pinned, a hand-off is a context switch, and the latency is the
/// program's. Four runs that alternated windows of both set-ups measured a
/// p50 of 0.011-0.015 ms pinned against 0.05-0.13 ms unpinned, and a
/// whole-phase p99 of 0.36-0.51 ms against 2.5-6.8 ms.
void PinOpenLoop(const ServeState& st, bool pinned) {
  const cpu_set_t& mask = pinned ? st.open_cpu : st.all_cpus;
  sched_setaffinity(0, sizeof mask, &mask);
}

Status SetUpServe(const Inputs& in, const std::string& dir, ServeState* st) {
  st->dir = dir;
  {
    serve::ModelRegistry::Options options;
    options.directory = dir;
    options.cache_capacity = 0;
    StatusOr<serve::ModelRegistry> writer =
        serve::ModelRegistry::Open(std::move(options));
    VUP_RETURN_IF_ERROR(writer.status());
    StatusOr<serve::GenerationPublisher> gen = writer.value().NewGeneration();
    VUP_RETURN_IF_ERROR(gen.status());
    for (size_t v = 1; v <= kServeFleet; ++v) {
      const Template& t = in.templates[(v - 1) % in.templates.size()];
      VUP_RETURN_IF_ERROR(gen.value().AddPrebuilt(static_cast<int64_t>(v),
                                                  t.text, t.compact));
    }
    serve::RegistryMeta meta;
    meta.fleet_seed = kFleetSeed;
    meta.fleet_vehicles = kServeFleet;
    meta.algorithm = "synthetic-mixed";
    VUP_RETURN_IF_ERROR(gen.value().Commit(meta));
  }
  serve::ModelRegistry::Options options;
  options.directory = dir;
  options.cache_capacity = kServeFleet;  // Bytes bind, not entries.
  options.cache_max_bytes = kServeCacheBytes;
  options.shards = kServeShards;
  options.prefer_compact = true;
  StatusOr<serve::ModelRegistry> registry =
      serve::ModelRegistry::Open(std::move(options));
  VUP_RETURN_IF_ERROR(registry.status());
  st->registry.emplace(std::move(registry).value());
  CPU_ZERO(&st->all_cpus);
  CPU_ZERO(&st->open_cpu);
  if (sched_getaffinity(0, sizeof st->all_cpus, &st->all_cpus) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &st->all_cpus)) {
      CPU_SET(cpu, &st->open_cpu);
      break;
    }
  }
  PinOpenLoop(*st, true);  // The open-loop worker inherits the pin.
  st->open_pool = std::make_unique<ThreadPool>(ThreadPool::Options(1, 4096));
  PinOpenLoop(*st, false);
  st->bulk_pool =
      std::make_unique<ThreadPool>(ThreadPool::Options(BulkWorkers(), 4096));
  st->open_service = std::make_unique<serve::PredictionService>(
      &*st->registry, st->open_pool.get());
  st->bulk_service = std::make_unique<serve::PredictionService>(
      &*st->registry, st->bulk_pool.get());

  // Zipf rank r is served by template r % 4 whatever the seed, so every
  // seed offers the same scoring-cost mix; which vehicle (hence shard)
  // holds each rank is a seeded shuffle within the template's ids.
  const size_t classes = in.templates.size();
  std::vector<std::vector<int64_t>> by_template(classes);
  for (size_t v = 1; v <= kServeFleet; ++v) {
    by_template[(v - 1) % classes].push_back(static_cast<int64_t>(v));
  }
  const Rng seeded(in.seed);
  Rng shuffle = seeded.Fork(kIdPermutationStream);
  for (std::vector<int64_t>& ids : by_template) shuffle.Shuffle(&ids);
  st->rank_to_id.resize(kServeFleet);
  for (size_t r = 0; r < kServeFleet; ++r) {
    st->rank_to_id[r] = by_template[r % classes][r / classes];
  }
  st->zipf.emplace(kServeFleet, kZipfExponent);
  st->id_stream = seeded.Fork(kIdStream);
  st->arrival_seed = seeded.Fork(kArrivalStream).NextUint64();
  st->check_rng = seeded.Fork(kServeCheckStream);
  return Status::OK();
}

serve::PredictionRequest NextRequest(const Inputs& in, ServeState* st) {
  const VehicleDataset& ds = *in.serve_dataset;
  const int64_t id = st->rank_to_id[st->zipf->Sample(st->id_stream.Uniform())];
  return serve::PredictionRequest(id, &ds, ds.num_days());
}

/// Every response must be OK and served by the vehicle's own model; a
/// seeded sample is kept for the text-bundle parity check.
void AccountResponses(const std::vector<serve::PredictionResponse>& responses,
                      ServeState* st) {
  for (const serve::PredictionResponse& resp : responses) {
    if (!resp.status.ok() || resp.level != serve::ServedLevel::kVehicle) {
      st->ops.Fail("serve: vehicle " + std::to_string(resp.vehicle_id) +
                   " level " +
                   std::string(serve::ServedLevelToString(resp.level)) + " " +
                   resp.status.ToString());
      continue;
    }
    st->ops.Ok();
    if (st->sampled.size() < kServeChecks &&
        st->check_rng.Bernoulli(1.0 / 512)) {
      st->sampled.emplace_back(resp.vehicle_id, resp.prediction);
    }
  }
}

/// One kOpenLoopWindow-second open-loop window: seeded Poisson arrivals;
/// what fell due while a call was in flight rides in the next PredictBatch.
/// Latency runs from each request's due time to its response.
void RunOpenLoopWindow(const Inputs& in, ServeState* st, ServeStats* r) {
  const std::vector<double> due = perfbench::PoissonArrivals(
      kOpenLoopRate, kOpenLoopWindow, st->arrival_seed++);
  std::vector<serve::PredictionRequest> requests;
  for (size_t i = 0; i < due.size(); ++i) {
    requests.push_back(NextRequest(in, st));
  }
  const size_t first_sample = r->latency_ms.size();
  PinOpenLoop(*st, true);
  const auto start = SteadyClock::now();
  double previous_done = 0.0;
  size_t i = 0;
  while (i < due.size()) {
    // The generator spins until the next due time instead of sleeping: a
    // sleeping generator idles its vCPU, and on a shared host waking it
    // again costs tens of microseconds to milliseconds, which would be
    // charged to the service.
    double now = SecondsSince(start);
    while (now < due[i]) now = SecondsSince(start);
    size_t j = i;
    while (j < due.size() && due[j] <= now) ++j;
    const double submit = now;
    const std::vector<serve::PredictionResponse> responses =
        st->open_service->PredictBatch(
            std::span<const serve::PredictionRequest>(&requests[i], j - i));
    const double done = SecondsSince(start);
    r->batch_size.Add(static_cast<double>(j - i));
    for (size_t k = i; k < j; ++k) {
      const perfbench::LatencySplit split =
          perfbench::SplitLatency(due[k], previous_done, submit, done);
      r->latency_ms.push_back(1e3 * split.total);
      r->queue_wait_ms.Add(1e3 * split.queue_wait);
      r->generator_lag_ms.Add(1e3 * split.generator_lag);
    }
    for (const serve::PredictionResponse& resp : responses) {
      r->score_ms.Add(1e3 * resp.latency_seconds);
    }
    AccountResponses(responses, st);
    previous_done = done;
    i = j;
  }
  PinOpenLoop(*st, false);
  std::vector<double> window(r->latency_ms.begin() +
                                 static_cast<std::ptrdiff_t>(first_sample),
                             r->latency_ms.end());
  const perfbench::TailPercentile p50 = perfbench::Percentile(&window, 0.50);
  const perfbench::TailPercentile p99 = perfbench::Percentile(&window, 0.99);
  r->windows_reportable = r->windows_reportable && p99.reported;
  r->window_p50_ms.push_back(p50.value);
  r->window_p99_ms.push_back(p99.value);
}

/// One kBulkSlice-second closed-loop slice: back-to-back fixed-size batches
/// from the same id stream.
void RunBulkSlice(const Inputs& in, ServeState* st, ServeStats* r) {
  std::vector<serve::PredictionRequest> batch(kBulkBatch);
  const auto t0 = SteadyClock::now();
  double elapsed = 0.0;
  while (elapsed < kBulkSlice) {
    for (auto& request : batch) request = NextRequest(in, st);
    const auto batch_t0 = SteadyClock::now();
    const std::vector<serve::PredictionResponse> responses =
        st->bulk_service->PredictBatch(batch);
    r->batch_rates.push_back(static_cast<double>(batch.size()) /
                             SecondsSince(batch_t0));
    elapsed = SecondsSince(t0);
    r->bulk_requests += batch.size();
    AccountResponses(responses, st);
  }
  r->bulk_seconds += elapsed;
}

void WarmUpServe(const Inputs& in, ServeState* st) {
  std::vector<serve::PredictionRequest> batch(kBulkBatch);
  for (size_t done = 0; done < kWarmupRequests; done += kBulkBatch) {
    for (auto& request : batch) request = NextRequest(in, st);
    st->bulk_service->PredictBatch(batch);
  }
}

/// Sampled responses must match the vehicle's text bundle scored offline:
/// LR bitwise, the float32 compact payloads within kCompactCeiling.
void CheckServe(const Inputs& in, ServeState* st) {
  const VehicleDataset& ds = *in.serve_dataset;
  if (st->sampled.size() < kServeChecks / 2) {
    st->ops.Fail("serve: too few sampled responses to check");
  }
  for (const auto& [id, served] : st->sampled) {
    std::ifstream bundle(st->registry->BundlePath(id));
    const StatusOr<VehicleForecaster> text = VehicleForecaster::Load(bundle);
    const StatusOr<double> p =
        text.ok() ? text.value().PredictTarget(ds, ds.num_days())
                  : StatusOr<double>(text.status());
    const Template& t = in.templates[static_cast<size_t>(id - 1) %
                                     in.templates.size()];
    bool ok = p.ok();
    if (ok && t.algorithm == Algorithm::kLinearRegression) {
      ok = SameBits(p.value(), served);
    } else if (ok) {
      ok = std::fabs(p.value() - served) <= kCompactCeiling;
    }
    st->ops.Check(ok, "serve: vehicle " + std::to_string(id) +
                          " differs from its text bundle");
  }
}

// ---------------------------------------------------------------------------
// The run: set-up, measurement, checks.

struct SetUpState {
  std::unique_ptr<NightlyState> nightly;
  std::unique_ptr<BacktestState> backtest;
  std::unique_ptr<ServeState> serve;
};

/// Sets up all three phases; `seconds` receives each phase's share.
Status SetUpAll(const Inputs& in, const std::string& dir, SetUpState* st,
                double (&seconds)[3]) {
  st->nightly = std::make_unique<NightlyState>();
  st->backtest = std::make_unique<BacktestState>();
  st->serve = std::make_unique<ServeState>();
  Status s;
  seconds[0] = Timed([&] {
    s = SetUpNightly(in, dir + "/nightly", st->nightly.get());
  });
  VUP_RETURN_IF_ERROR(s);
  seconds[1] = Timed([&] { s = SetUpBacktest(in, st->backtest.get()); });
  VUP_RETURN_IF_ERROR(s);
  seconds[2] = Timed([&] {
    s = SetUpServe(in, dir + "/serve", st->serve.get());
  });
  return s;
}

struct Measured {
  NightlyStats nightly;
  BacktestStats backtest;
  ServeStats serve;
};

enum Phase { kNightly = 0, kBacktest = 1, kServe = 2, kNumPhases = 3 };

/// Units each phase runs: a night, a backtest round, or a serve unit (an
/// open-loop window then a bulk slice).
struct Plan {
  size_t units[kNumPhases] = {0, 0, 0};

  static Plan For(Phase primary, double seconds) {
    const double per_second[kNumPhases] = {kNightsPerSecond, kRoundsPerSecond,
                                           kServeUnitsPerSecond};
    Plan plan;
    for (int p = 0; p < kNumPhases; ++p) {
      const double s = p == primary ? seconds : kCompanionSeconds;
      plan.units[p] = static_cast<size_t>(std::ceil(s * per_second[p]));
    }
    // The forecasts behind forecast_pe_pct must all be made (and the
    // nightly ones scored the night after); nights are capped by inputs.
    plan.units[kNightly] = std::clamp(plan.units[kNightly], kPeNights + 1,
                                      kMaxNights);
    plan.units[kBacktest] = std::max(plan.units[kBacktest], kPeRounds);
    return plan;
  }

  /// The first half of every phase (rounded up): the untraced half of a
  /// traced run.
  Plan FirstHalf() const {
    Plan half;
    for (int p = 0; p < kNumPhases; ++p) half.units[p] = (units[p] + 1) / 2;
    return half;
  }
  Plan Minus(const Plan& done) const {
    Plan rest;
    for (int p = 0; p < kNumPhases; ++p) {
      rest.units[p] = units[p] - done.units[p];
    }
    return rest;
  }
};

/// Runs `plan` with the phases interleaved: the next unit always goes to
/// the phase that is furthest behind its share, so every phase's units are
/// spread evenly over the whole measurement and a burst of neighbour load
/// costs each phase a few units instead of one phase all of them.
void Measure(const Inputs& in, const Plan& plan, bool traced, SetUpState* st,
             Measured* m) {
  size_t done[kNumPhases] = {0, 0, 0};
  for (;;) {
    int next = -1;
    double behind = 0.0;
    for (int p = 0; p < kNumPhases; ++p) {
      if (done[p] == plan.units[p]) continue;
      const double progress = (static_cast<double>(done[p]) + 0.5) /
                              static_cast<double>(plan.units[p]);
      if (next < 0 || progress < behind) {
        next = p;
        behind = progress;
      }
    }
    if (next < 0) return;
    ++done[next];
    switch (next) {
      case kNightly:
        RunNight(in, traced, st->nightly.get(), &m->nightly);
        break;
      case kBacktest:
        RunRound(traced, st->backtest.get(), &m->backtest);
        break;
      default:
        RunOpenLoopWindow(in, st->serve.get(), &m->serve);
        RunBulkSlice(in, st->serve.get(), &m->serve);
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // Basis of an end-to-end metric / what a layer moves.
  std::string ops;   // attempted/ok/failed of the phases it comes from.
};

/// "attempted/ok/failed verdict" over the phases a metric comes from.
std::string OpsVerdict(std::initializer_list<const Ops*> phases) {
  uint64_t attempted = 0, failed = 0;
  for (const Ops* ops : phases) {
    attempted += ops->attempted;
    failed += ops->failed;
  }
  return std::to_string(attempted) + "/" +
         std::to_string(attempted - failed) + "/" + std::to_string(failed) +
         (failed == 0 ? " correct" : " INCORRECT");
}

/// Per-layer rows: name, unit, and the end-to-end metric (workload) each
/// should move.
struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr const char* kMovesNightly = "nightly_vehicles_per_s (nightly)";
constexpr const char* kMovesBacktest = "backtest_fits_per_s (backtest)";
constexpr const char* kMovesServeTail =
    "serve_p99_ms, serve_bulk_rps (serve_zipf)";
constexpr const char* kMovesServeHead = "serve_p50_ms (serve_zipf)";
constexpr const char* kMovesServeLoad =
    "serve_p99_ms as load rises (serve_zipf)";
constexpr const char* kMovesNone = "tracing cost, not a layer";

constexpr LayerRow kLayerRows[] = {
    {"wire.feed_ms", "ms", kMovesNightly},
    {"wire.checkpoint_ms", "ms", kMovesNightly},
    {"wire.frames_accepted", "count", kMovesNightly},
    {"wire.reports_accepted", "count", kMovesNightly},
    {"wire.reports_rejected", "count", kMovesNightly},
    {"pipeline.build_dataset_ms", "ms", kMovesNightly},
    {"core.window_ms", "ms", kMovesBacktest},
    {"core.select_ms", "ms", kMovesBacktest},
    {"core.scale_ms", "ms", kMovesBacktest},
    {"core.window_advance_ratio", "ratio", kMovesBacktest},
    {"core.window_advance_ratio.nightly", "ratio",
     "none: each night's dataset is new"},
    {"ml.train_ms.LR", "ms", kMovesNightly},
    {"ml.train_ms.Lasso", "ms", kMovesNightly},
    {"ml.train_ms.SVR", "ms", kMovesNightly},
    {"ml.train_ms.GB", "ms", kMovesNightly},
    {"ml.fit_ms.LR", "ms", kMovesBacktest},
    {"ml.fit_ms.Lasso", "ms", kMovesBacktest},
    {"ml.fit_ms.SVR", "ms", kMovesBacktest},
    {"ml.fit_ms.GB", "ms", kMovesBacktest},
    {"ml.predict_us", "us", kMovesBacktest},
    {"ml.fit_ratio.SVR_over_LR", "ratio", kMovesBacktest},
    {"ml.fit_ratio.GB_over_SVR", "ratio", kMovesBacktest},
    {"serve.publish_ms", "ms", kMovesNightly},
    {"serve.publish_files", "count", kMovesNightly},
    {"serve.publish_bytes", "bytes", kMovesNightly},
    {"serve.registry_open_ms", "ms", kMovesNightly},
    {"serve.fetch_ms", "ms", kMovesServeTail},
    {"serve.cache_hit_ratio", "ratio", kMovesServeTail},
    {"serve.cache_misses", "count", kMovesServeTail},
    {"serve.cache_evictions", "count", kMovesServeTail},
    {"serve.load_failures", "count", kMovesServeTail},
    {"serve.cache_bytes", "bytes", kMovesServeTail},
    {"serve.score_ms", "ms", kMovesServeHead},
    {"serve.admission_ms", "ms", kMovesServeHead},
    {"serve.queue_wait_ms", "ms", kMovesServeLoad},
    {"serve.batch_size", "count", kMovesServeLoad},
    {"serve.generator_lag_ms", "ms", kMovesServeLoad},
    {"trace.overhead_pct.nightly", "%", kMovesNone},
    {"trace.overhead_pct.backtest", "%", kMovesNone},
    {"trace.overhead_pct.serve_bulk", "%", kMovesNone},
};

double OverheadPct(double untraced, double traced) {
  return untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0;
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The per-layer values of a traced half, plus the Section 4.5 table.
std::vector<Metric> LayerMetrics(const Measured& untraced,
                                 const Measured& traced,
                                 const obs::Tracer& tracer,
                                 const serve::ModelRegistryStats& reg0,
                                 const serve::ModelRegistryStats& reg1) {
  const NightlyStats& n = traced.nightly;
  const BacktestStats& b = traced.backtest;
  const ServeStats& sv = traced.serve;
  std::map<std::string, double> v;
  v["wire.feed_ms"] = 1e3 * n.feed.Get();
  v["wire.checkpoint_ms"] = 1e3 * n.checkpoint.Get();
  v["wire.frames_accepted"] = static_cast<double>(n.frames);
  v["wire.reports_accepted"] = static_cast<double>(n.reports);
  v["wire.reports_rejected"] = static_cast<double>(n.rejected);
  v["pipeline.build_dataset_ms"] = 1e3 * n.build.Get();

  SpanTotal window, select, scale, fit_all, fetch, admission;
  double fit_ms[kNumAlgorithms] = {};
  tracer.VisitTree([&](const obs::Tracer::Node& root) {
    for (size_t a = 0; a < kNumAlgorithms; ++a) {
      const std::string name = "backtest.train." + AlgName(kAlgorithms[a]);
      const obs::Tracer::Node* node = Child(root, name);
      if (node == nullptr) continue;
      SumNamed(*node, "window", &window);
      SumNamed(*node, "select", &select);
      SumNamed(*node, "scale", &scale);
      SpanTotal fit;
      SumNamed(*node, "train", &fit);
      fit_ms[a] = fit.MeanMs();
      fit_all.count += fit.count;
      fit_all.seconds += fit.seconds;
    }
    // Pool workers record serve.fetch as root spans; only the serve phase
    // scores on the pool (nightly predicts inline under nightly.serve).
    if (const auto* node = Child(root, "serve.fetch")) fetch.Add(*node);
    if (const auto* node = Child(root, "serve.admission")) admission.Add(*node);
  });
  const double fits = static_cast<double>(std::max<uint64_t>(b.fits, 1));
  v["core.window_ms"] = 1e3 * window.seconds / fits;
  v["core.select_ms"] = 1e3 * select.seconds / fits;
  v["core.scale_ms"] = 1e3 * scale.seconds / fits;
  v["core.window_advance_ratio"] = b.window.AdvanceRatio();
  v["core.window_advance_ratio.nightly"] = n.window.AdvanceRatio();
  for (size_t a = 0; a < kNumAlgorithms; ++a) {
    v["ml.train_ms." + AlgName(kAlgorithms[a])] = 1e3 * n.train[a].Get();
    v["ml.fit_ms." + AlgName(kAlgorithms[a])] = fit_ms[a];
  }
  v["ml.predict_us"] = 1e6 * b.predict.Get();
  v["ml.fit_ratio.SVR_over_LR"] = fit_ms[0] > 0 ? fit_ms[2] / fit_ms[0] : 0;
  v["ml.fit_ratio.GB_over_SVR"] = fit_ms[2] > 0 ? fit_ms[3] / fit_ms[2] : 0;
  v["serve.publish_ms"] = 1e3 * n.publish.Get();
  v["serve.publish_files"] = static_cast<double>(n.publish_files);
  v["serve.publish_bytes"] = static_cast<double>(n.publish_bytes);
  v["serve.registry_open_ms"] = 1e3 * n.open.Get();

  const uint64_t hits = reg1.hits - reg0.hits;
  const uint64_t misses = reg1.misses - reg0.misses;
  v["serve.fetch_ms"] = fetch.MeanMs();
  v["serve.cache_hit_ratio"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  v["serve.cache_misses"] = static_cast<double>(misses);
  v["serve.cache_evictions"] =
      static_cast<double>(reg1.evictions - reg0.evictions);
  v["serve.load_failures"] =
      static_cast<double>(reg1.load_failures - reg0.load_failures);
  v["serve.cache_bytes"] = static_cast<double>(reg1.cache_bytes);
  v["serve.score_ms"] = sv.score_ms.Get();
  v["serve.admission_ms"] = admission.MeanMs();
  v["serve.queue_wait_ms"] = sv.queue_wait_ms.Get();
  v["serve.batch_size"] = sv.batch_size.Get();
  v["serve.generator_lag_ms"] = sv.generator_lag_ms.Get();
  v["trace.overhead_pct.nightly"] =
      OverheadPct(untraced.nightly.Rate(), n.Rate());
  v["trace.overhead_pct.backtest"] =
      OverheadPct(untraced.backtest.Rate(), b.Rate());
  v["trace.overhead_pct.serve_bulk"] =
      OverheadPct(untraced.serve.BulkRate(), sv.BulkRate());

  std::vector<Metric> out;
  for (const LayerRow& row : kLayerRows) {
    out.push_back({row.name, v[row.name], row.unit, row.moves, ""});
  }

  // Section 4.5: training dominates; SVR ~10x linear; GB ~10x SVR.
  const double fit_total_ms = 1e3 * fit_all.seconds / fits;
  const double predict_ms = 1e3 * b.predict.Get();
  const double step_ms = fit_total_ms + v["core.window_ms"] +
                         v["core.select_ms"] + v["core.scale_ms"] + predict_ms;
  const auto share = [&](double ms) {
    return step_ms > 0 ? 100.0 * ms / step_ms : 0.0;
  };
  std::printf("section 4.5 cost table (backtest, traced half, %llu fits):\n",
              static_cast<unsigned long long>(b.fits));
  for (size_t a = 0; a < kNumAlgorithms; ++a) {
    std::printf("  fit %-6s %10.3f ms\n", AlgName(kAlgorithms[a]).c_str(),
                fit_ms[a]);
  }
  std::printf("  SVR / LR   %8.2fx   (paper: ~10x)\n",
              v["ml.fit_ratio.SVR_over_LR"]);
  std::printf("  GB / SVR   %8.2fx   (paper: ~10x)\n",
              v["ml.fit_ratio.GB_over_SVR"]);
  std::printf("  share of a walk-forward step: train %.1f%%, window %.1f%%, "
              "select %.1f%%, scale %.1f%%, predict %.1f%%\n",
              share(fit_total_ms), share(v["core.window_ms"]),
              share(v["core.select_ms"]), share(v["core.scale_ms"]),
              share(predict_ms));
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string cache_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else {
      return false;
    }
  }
  return !args->work_dir.empty() && !args->cache_dir.empty() &&
         (args->workload == "nightly" || args->workload == "backtest" ||
          args->workload == "serve_zipf");
}

void PrintOps(const char* phase, const Ops& ops) {
  std::printf("  %-10s attempted=%llu ok=%llu failed=%llu  %s\n", phase,
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.attempted - ops.failed),
              static_cast<unsigned long long>(ops.failed),
              ops.failed == 0 ? "correct" : "INCORRECT");
  for (const std::string& m : ops.messages) std::printf("    ! %s\n", m.c_str());
}

int Run(const Args& args) {
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  Inputs in;
  const auto inputs_t0 = SteadyClock::now();
  Status s = MakeInputs(args.seed, args.cache_dir, &in);
  if (!s.ok()) {
    std::fprintf(stderr, "inputs: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("inputs ready in %.2f s (outside setup_s)\n",
              SecondsSince(inputs_t0));

  // Set up every phase kSetupRepeats times; setup_s is the median, and the
  // last set-up is the one measured.
  std::vector<double> setup_seconds;
  double phase_setup[3] = {0, 0, 0};  // Of the last set-up.
  SetUpState st;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    st = SetUpState();
    const std::string dir = args.work_dir + "/setup" + std::to_string(rep);
    fs::remove_all(dir, ec);
    if (rep > 0) {
      fs::remove_all(args.work_dir + "/setup" + std::to_string(rep - 1), ec);
    }
    FlushWrites(args.work_dir);
    const auto t0 = SteadyClock::now();
    s = SetUpAll(in, dir, &st, phase_setup);
    setup_seconds.push_back(SecondsSince(t0));
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  FlushWrites(args.work_dir);
  WarmUpServe(in, st.serve.get());

  const Plan plan = Plan::For(args.workload == "nightly"    ? kNightly
                              : args.workload == "backtest" ? kBacktest
                                                            : kServe,
                              args.seconds);
  Measured untraced, traced;
  obs::Tracer tracer;
  serve::ModelRegistryStats reg0, reg1;
  if (!args.trace) {
    Measure(in, plan, false, &st, &untraced);
  } else {
    const Plan first = plan.FirstHalf();
    Measure(in, first, false, &st, &untraced);
    reg0 = st.serve->registry->stats();
    obs::Tracer::SetActive(&tracer);
    Measure(in, plan.Minus(first), true, &st, &traced);
    obs::Tracer::SetActive(nullptr);
    reg1 = st.serve->registry->stats();
  }
  CheckNightlyDigest(in, st.nightly.get());
  CheckBacktest(st.backtest.get());
  CheckServe(in, st.serve.get());
  const double peak_rss_mb = PeakRssMb();

  // End-to-end metrics, from the untraced measurement.
  const Measured& m = untraced;
  std::vector<double> latencies = m.serve.latency_ms;
  const perfbench::TailPercentile p99 = perfbench::Percentile(&latencies, 0.99);
  st.serve->ops.Check(m.serve.windows_reportable && p99.reported,
                      "serve: a p99 has fewer than 10 samples beyond it");
  Forecasts pe = st.nightly->pe;
  for (size_t i = 0; i < st.backtest->pe.predicted.size(); ++i) {
    pe.Add(st.backtest->pe.predicted[i], st.backtest->pe.actual[i]);
  }
  std::string setup_list;
  for (double t : setup_seconds) {
    setup_list += (setup_list.empty() ? "" : ", ") + Fixed(t);
  }
  const Ops* nightly_ops = &st.nightly->ops;
  const Ops* backtest_ops = &st.backtest->ops;
  const Ops* serve_ops = &st.serve->ops;
  const std::string all_ops =
      OpsVerdict({nightly_ops, backtest_ops, serve_ops});

  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_seconds), "s",
       "median of " + setup_list + " s; last: nightly " +
           Fixed(phase_setup[0]) + ", backtest " + Fixed(phase_setup[1]) +
           ", serve " + Fixed(phase_setup[2]),
       all_ops},
      {"peak_rss_mb", peak_rss_mb, "MiB", "ru_maxrss at exit", all_ops},
      {"nightly_vehicles_per_s", m.nightly.Rate(), "1/s",
       "p90 of " + std::to_string(m.nightly.night_rates.size()) +
           " nights of " + std::to_string(kNightlyVehicles) + " vehicles (" +
           Fixed(m.nightly.seconds, 2) + " s)",
       OpsVerdict({nightly_ops})},
      {"backtest_fits_per_s", m.backtest.Rate(), "1/s",
       "p90 of " + std::to_string(m.backtest.round_rates.size()) +
           " rounds of " +
           std::to_string(kBacktestVehicles * kNumAlgorithms) + " fits (" +
           Fixed(m.backtest.seconds, 2) + " s)",
       OpsVerdict({backtest_ops})},
      {"forecast_pe_pct",
       PercentageError(pe.predicted, pe.actual), "%",
       std::to_string(pe.predicted.size()) + " forecasts (nightly " +
           std::to_string(st.nightly->pe.predicted.size()) + ", backtest " +
           std::to_string(st.backtest->pe.predicted.size()) + ")",
       OpsVerdict({nightly_ops, backtest_ops})},
      {"serve_p50_ms", WindowLatency(m.serve.window_p50_ms), "ms",
       "p10 of " + std::to_string(m.serve.window_p50_ms.size()) +
           " open-loop windows (median " +
           Fixed(Median(m.serve.window_p50_ms), 4) + " ms); " +
           std::to_string(p99.samples) + " requests at " +
           Fixed(kOpenLoopRate, 0) + "/s",
       OpsVerdict({serve_ops})},
      {"serve_p99_ms", WindowLatency(m.serve.window_p99_ms), "ms",
       "p10 of " + std::to_string(m.serve.window_p99_ms.size()) +
           " windows (median " + Fixed(Median(m.serve.window_p99_ms)) +
           " ms); whole-phase p99 " + Fixed(p99.value) + " ms, " +
           std::to_string(p99.beyond) + " samples beyond it",
       OpsVerdict({serve_ops})},
      {"serve_bulk_rps", m.serve.BulkRate(), "1/s",
       "p90 of " + std::to_string(m.serve.batch_rates.size()) +
           " batches of " + std::to_string(kBulkBatch) + " (" +
           std::to_string(m.serve.bulk_requests) + " requests in " +
           Fixed(m.serve.bulk_seconds, 2) + " s)",
       OpsVerdict({serve_ops})},
  };

  std::printf("operations (a failed correctness check is a failed op):\n");
  PrintOps("nightly", *nightly_ops);
  PrintOps("backtest", *backtest_ops);
  PrintOps("serve_zipf", *serve_ops);
  std::printf("end-to-end%s (name, value, unit, ops attempted/ok/failed "
              "and verdict, basis):\n",
              args.trace ? ", untraced half" : "");
  for (const Metric& e : e2e) {
    std::printf("  %-24s %14.4f %-4s %s  %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.ops.c_str(), e.note.c_str());
  }
  const serve::ModelRegistryStats cache = st.serve->registry->stats();
  std::printf("serve cache at exit: %llu of %zu models resident, %llu of %zu "
              "budget bytes, hit ratio %.3f since open\n",
              static_cast<unsigned long long>(cache.resident_models),
              kServeFleet, static_cast<unsigned long long>(cache.cache_bytes),
              kServeCacheBytes,
              cache.hits + cache.misses > 0
                  ? static_cast<double>(cache.hits) /
                        static_cast<double>(cache.hits + cache.misses)
                  : 0.0);

  std::vector<Metric> layer;
  if (args.trace) {
    layer = LayerMetrics(untraced, traced, tracer, reg0, reg1);
    std::printf("per-layer (traced half; per call of the named operation):\n");
    for (const Metric& l : layer) {
      std::printf("  %-34s %14.4f %-5s moves %s\n", l.name.c_str(), l.value,
                  l.unit.c_str(), l.note.c_str());
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const Ops* ops : {nightly_ops, backtest_ops, serve_ops}) {
    attempted += ops->attempted;
    failed += ops->failed;
  }
  const bool correct = failed == 0;
  std::printf("verdict: %s\n", correct ? "correct" : "INCORRECT");

  const std::vector<Metric>& out = args.trace ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace vup::bench

int main(int argc, char** argv) {
  vup::bench::Args args;
  if (!vup::bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vupbench --workload nightly|backtest|serve_zipf "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--cache-dir DIR\n");
    return 2;
  }
  return vup::bench::Run(args);
}
