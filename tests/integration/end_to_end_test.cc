// End-to-end integration tests: raw CAN frames -> 10-minute reports ->
// lossy uplink -> daily aggregation -> cleaning -> relational dataset ->
// per-vehicle forecaster. Exercises the full reproduction pipeline the way
// a deployment would.

#include <bit>
#include <cmath>
#include <fstream>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/experiment.h"
#include "pipeline/aggregate.h"
#include "pipeline/cleaning.h"
#include "pipeline/dataset.h"
#include "telemetry/device.h"
#include "telemetry/fleet.h"

namespace vup {
namespace {

TEST(EndToEndTest, RawCanPathMatchesFastPathHours) {
  // For the same vehicle-days, the full-fidelity path (CAN frames ->
  // aggregation) must reproduce the fast path's utilization hours.
  Fleet fleet = Fleet::Generate(FleetConfig::Small(10, 11));
  VehicleDailySeries series = fleet.GenerateDailySeries(1);
  EngineSimulator sim = fleet.MakeEngineSimulator(1);

  bool engine_on = false;
  std::vector<AggregatedReport> all_reports;
  size_t day0 = 100;  // Simulate 14 days mid-series.
  for (size_t d = day0; d < day0 + 14; ++d) {
    auto messages =
        sim.SimulateDay(series.days[d].date, series.days[d].hours);
    auto reports = AggregateDay(messages, series.info.vehicle_id,
                                series.days[d].date, &engine_on);
    all_reports.insert(all_reports.end(), reports.begin(), reports.end());
  }

  std::vector<DailyUsageRecord> daily = AggregateReportsDaily(all_reports);
  // Map date -> hours from the raw path.
  for (const DailyUsageRecord& rec : daily) {
    size_t idx = static_cast<size_t>(rec.date - series.days[0].date);
    EXPECT_NEAR(rec.hours, series.days[idx].hours, 0.25)
        << "day " << rec.date.ToString();
  }
}

TEST(EndToEndTest, LossyUplinkThenCleaningYieldsFullCoverage) {
  Fleet fleet = Fleet::Generate(FleetConfig::Small(10, 13));
  VehicleDailySeries series = fleet.GenerateDailySeries(2);
  EngineSimulator sim = fleet.MakeEngineSimulator(2);
  ConnectivityConfig conn;
  conn.offline_start_prob = 0.02;
  conn.mean_offline_slots = 20;
  conn.recovery_fraction = 0.5;
  OnboardDevice device(conn, 17);

  bool engine_on = false;
  std::vector<AggregatedReport> delivered;
  size_t day0 = 50;
  size_t n_days = 30;
  for (size_t d = day0; d < day0 + n_days; ++d) {
    auto messages =
        sim.SimulateDay(series.days[d].date, series.days[d].hours);
    auto reports = AggregateDay(messages, series.info.vehicle_id,
                                series.days[d].date, &engine_on);
    auto out = device.Deliver(reports);
    delivered.insert(delivered.end(), out.begin(), out.end());
  }

  std::vector<DailyUsageRecord> daily = AggregateReportsDaily(delivered);
  CleaningReport report;
  Date start = series.days[day0].date;
  Date end = series.days[day0 + n_days - 1].date;
  auto cleaned =
      CleanDailyRecords(daily, start, end, CleaningOptions(), &report)
          .value();
  // Cleaning restores one record per calendar day regardless of losses.
  EXPECT_EQ(cleaned.size(), n_days);
  for (size_t i = 1; i < cleaned.size(); ++i) {
    EXPECT_EQ(cleaned[i].date - cleaned[i - 1].date, 1);
  }
  // The dataset builds on the cleaned records.
  auto ds = VehicleDataset::Build(series.info, cleaned,
                                  fleet.CountryOf(series.info));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().num_days(), n_days);
}

TEST(EndToEndTest, FleetToForecastPipeline) {
  Fleet fleet = Fleet::Generate(FleetConfig::Small(40, 19));
  ExperimentRunner runner(&fleet);
  ExperimentOptions opts;
  opts.max_vehicles = 3;
  const VehicleDataset* ds = nullptr;
  std::vector<size_t> selected = runner.SelectVehicles(opts);
  ASSERT_FALSE(selected.empty());
  ds = runner.Dataset(selected[0]).value();

  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kGradientBoosting;
  cfg.windowing.lookback_w = 28;
  cfg.selection.top_k = 10;
  cfg.gb.n_estimators = 40;
  VehicleForecaster forecaster(cfg);
  size_t n = ds->num_days();
  ASSERT_TRUE(forecaster.Train(*ds, n - 150, n - 1).ok());
  double pred = forecaster.PredictTarget(*ds, n).value();
  EXPECT_GE(pred, 0.0);
  EXPECT_LE(pred, 24.0);
}

TEST(EndToEndTest, DatasetRoundTripsThroughCsv) {
  // The relational output (step v) survives CSV persistence exactly: every
  // date and every double cell reads back bit for bit.
  Fleet fleet = Fleet::Generate(FleetConfig::Small(10, 23));
  VehicleDataset ds = PrepareVehicleDataset(fleet, 3).value();
  std::string path = ::testing::TempDir() + "/vup_e2e_dataset.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(ds.WriteCsv(out).ok());
  }
  std::ifstream in(path);
  VehicleDataset loaded =
      VehicleDataset::ReadCsv(in, ds.info(), ds.country()).value();
  ASSERT_EQ(loaded.num_days(), ds.num_days());
  for (size_t d = 0; d < ds.num_days(); ++d) {
    ASSERT_EQ(loaded.dates()[d], ds.dates()[d]);
    ASSERT_EQ(std::bit_cast<uint64_t>(loaded.hours()[d]),
              std::bit_cast<uint64_t>(ds.hours()[d]))
        << "day " << d;
    for (size_t f = 0; f < ds.num_features(); ++f) {
      ASSERT_EQ(std::bit_cast<uint64_t>(loaded.feature(d, f)),
                std::bit_cast<uint64_t>(ds.feature(d, f)))
          << "day " << d << " feature " << f;
    }
  }
}

TEST(EndToEndTest, WholeEvaluationOnGeneratedVehicle) {
  Fleet fleet = Fleet::Generate(FleetConfig::Small(40, 29));
  ExperimentRunner runner(&fleet);
  ExperimentOptions opts;
  opts.max_vehicles = 2;
  std::vector<size_t> selected = runner.SelectVehicles(opts);
  ASSERT_FALSE(selected.empty());
  const VehicleDataset* ds = runner.Dataset(selected[0]).value();

  EvaluationConfig cfg;
  cfg.scenario = Scenario::kNextWorkingDay;
  cfg.eval_days = 30;
  cfg.retrain_every = 15;
  cfg.forecaster.algorithm = Algorithm::kLasso;
  cfg.forecaster.windowing.lookback_w = 30;
  cfg.forecaster.selection.top_k = 10;
  cfg.train_window = 120;
  VehicleEvaluation ev = EvaluateVehicle(*ds, cfg).value();
  EXPECT_EQ(ev.num_predictions, 30u);
  EXPECT_TRUE(std::isfinite(ev.pe));
  EXPECT_LT(ev.pe, 150.0);
}

}  // namespace
}  // namespace vup
