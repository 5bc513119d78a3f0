#include "pipeline/dataset.h"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "pipeline/enrich.h"
#include "telemetry/fleet.h"

namespace vup {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2017, 5, 1).value().AddDays(day); }

std::vector<DailyUsageRecord> MakeRecords(int n) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    r.hours = (i % 7 < 5) ? 6.0 + 0.1 * i : 0.0;
    r.fuel_used_l = r.hours * 10;
    r.avg_engine_load_pct = r.hours > 0 ? 55 : 0;
    r.dtc_count = i % 3;
    recs.push_back(r);
  }
  return recs;
}

VehicleInfo Info() {
  VehicleInfo info;
  info.vehicle_id = 9;
  info.model_id = "RC-001";
  info.country_code = "IT";
  return info;
}

TEST(VehicleDatasetTest, BuildBasics) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(20), Italy()).value();
  EXPECT_EQ(ds.num_days(), 20u);
  EXPECT_EQ(ds.dates().size(), 20u);
  EXPECT_EQ(ds.hours().size(), 20u);
  EXPECT_EQ(ds.num_features(),
            VehicleDataset::kNumEngineFeatures + kNumContextFeatures);
  EXPECT_EQ(ds.info().vehicle_id, 9);
}

TEST(VehicleDatasetTest, FeatureValuesMatchRecords) {
  auto recs = MakeRecords(10);
  auto ds = VehicleDataset::Build(Info(), recs, Italy()).value();
  // Feature 0 is day_hours, feature 1 fuel_used_l.
  EXPECT_DOUBLE_EQ(ds.feature(3, 0), recs[3].hours);
  EXPECT_DOUBLE_EQ(ds.feature(3, 1), recs[3].fuel_used_l);
  // Context features appended after the engine block.
  size_t dow_col = VehicleDataset::kNumEngineFeatures;
  EXPECT_DOUBLE_EQ(ds.feature(0, dow_col),
                   static_cast<double>(recs[0].date.weekday()));
  // FeatureRow view agrees with feature().
  auto row = ds.FeatureRow(3);
  EXPECT_DOUBLE_EQ(row[0], recs[3].hours);
}

TEST(VehicleDatasetTest, FeatureNamesStable) {
  const auto& names = VehicleDataset::FeatureNames();
  EXPECT_EQ(names.size(),
            VehicleDataset::kNumEngineFeatures + kNumContextFeatures);
  EXPECT_EQ(names[0], "day_hours");
  EXPECT_EQ(names[VehicleDataset::kNumEngineFeatures], "ctx_day_of_week");
}

TEST(VehicleDatasetTest, RejectsEmptyAndGappedInput) {
  EXPECT_FALSE(VehicleDataset::Build(Info(), {}, Italy()).ok());
  auto recs = MakeRecords(5);
  recs.erase(recs.begin() + 2);  // Gap.
  Status s = VehicleDataset::Build(Info(), recs, Italy()).status();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("consecutive"), std::string::npos);
}

TEST(VehicleDatasetTest, CompressToWorkingDays) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(21), Italy()).value();
  VehicleDataset working = ds.CompressToWorkingDays(1.0);
  // 15 of 21 days have >= 1h (5 per week).
  EXPECT_EQ(working.num_days(), 15u);
  for (double h : working.hours()) {
    EXPECT_GE(h, 1.0);
  }
  // Dates preserved (non-consecutive allowed in the compressed view).
  EXPECT_EQ(working.dates()[0], D(0));
  EXPECT_EQ(working.dates()[5], D(7));
  // Features preserved per-row.
  EXPECT_DOUBLE_EQ(working.feature(5, 0), working.hours()[5]);
}

TEST(VehicleDatasetTest, CompressThresholdRespected) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(21), Italy()).value();
  EXPECT_EQ(ds.CompressToWorkingDays(100.0).num_days(), 0u);
  EXPECT_EQ(ds.CompressToWorkingDays(0.0).num_days(), 21u);
}

std::string ToCsv(const VehicleDataset& ds) {
  std::ostringstream os;
  Status written = ds.WriteCsv(os);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return os.str();
}

StatusOr<VehicleDataset> FromCsv(const std::string& text,
                                 const Country& country = Italy()) {
  std::istringstream is(text);
  return VehicleDataset::ReadCsv(is, Info(), country);
}

/// Bitwise equality on dates, hours and every feature cell.
void ExpectBitwiseEqual(const VehicleDataset& a, const VehicleDataset& b) {
  ASSERT_EQ(a.num_days(), b.num_days());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (size_t d = 0; d < a.num_days(); ++d) {
    ASSERT_EQ(a.dates()[d], b.dates()[d]) << "day " << d;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.hours()[d]),
              std::bit_cast<uint64_t>(b.hours()[d]))
        << "day " << d;
    for (size_t f = 0; f < a.num_features(); ++f) {
      ASSERT_EQ(std::bit_cast<uint64_t>(a.feature(d, f)),
                std::bit_cast<uint64_t>(b.feature(d, f)))
          << "day " << d << " feature " << f;
    }
  }
}

/// A valid CSV of MakeRecords(n) with row `day` (0-based) rewritten by
/// setting column `column` to `cell`.
std::string CsvWithCell(int n, int day, size_t column,
                        const std::string& cell) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(n), Italy()).value();
  std::vector<std::string> lines = Split(ToCsv(ds), '\n');
  std::vector<std::string> cells = Split(lines[1 + day], ',');
  cells[column] = cell;
  lines[1 + day] = Join(cells, ",");
  return Join(lines, "\n");
}

/// Column index of a feature in the CSV (after date, utilization_hours).
size_t CsvColumn(const std::string& feature) {
  const auto& names = VehicleDataset::FeatureNames();
  for (size_t f = 0; f < names.size(); ++f) {
    if (names[f] == feature) return 2 + f;
  }
  ADD_FAILURE() << "no feature " << feature;
  return 0;
}

/// The rejection of `text` names `want` (a line and column) in its message.
void ExpectRejected(const std::string& text, const std::string& want) {
  Status s = FromCsv(text).status();
  ASSERT_FALSE(s.ok()) << "accepted: " << want;
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find(want), std::string::npos) << s.ToString();
}

TEST(VehicleDatasetCsvTest, HeaderAndShape) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(8), Italy()).value();
  std::vector<std::string> lines = Split(ToCsv(ds), '\n');
  ASSERT_EQ(lines.size(), 1u + 8u + 1u);  // Header, rows, final newline.
  EXPECT_TRUE(lines.back().empty());
  std::vector<std::string> header = {"date", "utilization_hours"};
  for (const std::string& name : VehicleDataset::FeatureNames()) {
    header.push_back(name);
  }
  EXPECT_EQ(lines[0], Join(header, ","));
  EXPECT_EQ(Split(lines[1], ',').size(), 2 + ds.num_features());
  EXPECT_EQ(Split(lines[1], ',')[0], "2017-05-01");
  EXPECT_EQ(Split(lines[1], ',')[1], "6");  // Shortest form, no padding.
}

// Seeded property: for every vehicle of several generated fleets the CSV
// round trip reproduces the in-memory dataset bit for bit.
TEST(VehicleDatasetCsvTest, GeneratedFleetsRoundTripBitwise) {
  size_t vehicles = 0;
  for (uint64_t seed : {3u, 17u, 42u, 1009u}) {
    Fleet fleet = Fleet::Generate(FleetConfig::Small(3, seed));
    for (size_t i = 0; i < fleet.size(); ++i) {
      VehicleDataset ds = PrepareVehicleDataset(fleet, i).value();
      // Context is recomputed, so read back under the vehicle's country.
      StatusOr<VehicleDataset> back = FromCsv(ToCsv(ds), ds.country());
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ExpectBitwiseEqual(ds, back.value());
      ++vehicles;
    }
  }
  EXPECT_GE(vehicles, 8u);
}

// Random normal doubles of every magnitude and sign, plus zeros, survive
// the shortest-form rendering exactly.
TEST(VehicleDatasetCsvTest, RandomNormalDoublesRoundTripBitwise) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto any_normal = [&rng] {
      double v;
      do {
        v = std::bit_cast<double>(rng.NextUint64());
      } while (!std::isnormal(v));
      return v;
    };
    std::vector<DailyUsageRecord> recs = MakeRecords(40);
    for (DailyUsageRecord& r : recs) {
      r.hours = rng.Bernoulli(0.1) ? -0.0 : any_normal();
      r.fuel_used_l = any_normal();
      r.avg_engine_rpm = any_normal();
      r.distance_km = rng.Normal(0.0, 1e-300);
      r.idle_hours = any_normal();
      r.dtc_count = static_cast<int>(
          rng.UniformInt(std::numeric_limits<int>::min(),
                         std::numeric_limits<int>::max()));
    }
    auto ds = VehicleDataset::Build(Info(), recs, Italy()).value();
    StatusOr<VehicleDataset> back = FromCsv(ToCsv(ds));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBitwiseEqual(ds, back.value());
  }
}

TEST(VehicleDatasetCsvTest, RecomputesContext) {
  // Context columns in the CSV are ignored; the rebuilt context derives
  // from dates + country, so tampered context cannot survive a round trip.
  const size_t dow = CsvColumn("ctx_day_of_week");
  auto rebuilt = FromCsv(CsvWithCell(10, 4, dow, "6")).value();
  for (size_t d = 0; d < rebuilt.num_days(); ++d) {
    EXPECT_DOUBLE_EQ(rebuilt.feature(d, dow - 2),
                     static_cast<double>(rebuilt.dates()[d].weekday()));
  }
}

TEST(VehicleDatasetCsvTest, ToleratesCrlfAndBlankLines) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(6), Italy()).value();
  std::vector<std::string> lines = Split(ToCsv(ds), '\n');
  std::string text;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    text += line + "\r\n\r\n";
  }
  StatusOr<VehicleDataset> back = FromCsv(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitwiseEqual(ds, back.value());
}

TEST(VehicleDatasetCsvTest, RejectsNonFiniteCells) {
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "NaN", "1e999"}) {
    ExpectRejected(CsvWithCell(5, 2, 1, bad),
                   "line 4, column 'utilization_hours'");
    ExpectRejected(CsvWithCell(5, 2, CsvColumn("day_hours"), bad),
                   "line 4, column 'day_hours'");
    ExpectRejected(CsvWithCell(5, 0, CsvColumn("ctx_month"), bad),
                   "line 2, column 'ctx_month'");
  }
}

TEST(VehicleDatasetCsvTest, RejectsDtcCountOutsideInt) {
  const size_t dtc = CsvColumn("dtc_count");
  for (const char* bad : {"1e300", "-1e300", "2147483648", "-2147483649",
                          "1.5", "0.0001"}) {
    ExpectRejected(CsvWithCell(5, 1, dtc, bad), "line 3, column 'dtc_count'");
  }
  auto ok = FromCsv(CsvWithCell(5, 1, dtc, "2147483647"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().feature(1, dtc - 2), 2147483647.0);
}

TEST(VehicleDatasetCsvTest, RejectsQuotedCell) {
  ExpectRejected(CsvWithCell(5, 3, CsvColumn("fuel_used_l"), "\"12.5\""),
                 "line 5, column 'fuel_used_l'");
  ExpectRejected(CsvWithCell(5, 3, 0, "\"2017-05-04\""),
                 "line 5, column 'date'");
}

TEST(VehicleDatasetCsvTest, RejectsEmptyCell) {
  ExpectRejected(CsvWithCell(5, 1, CsvColumn("engine_rpm"), ""),
                 "line 3, column 'engine_rpm'");
  ExpectRejected(CsvWithCell(5, 1, 0, ""), "line 3, column 'date'");
}

TEST(VehicleDatasetCsvTest, RejectsWrongHeader) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(5), Italy()).value();
  std::string text = ToCsv(ds);
  std::string renamed = text;
  renamed.replace(renamed.find("fuel_used_l"), 11, "fuel_used_x");
  ExpectRejected(renamed, "header field 'fuel_used_x'");
  // Swapped columns: same names, wrong order.
  std::string swapped = text;
  swapped.replace(0, std::string("date,utilization_hours").size(),
                  "utilization_hours,date");
  ExpectRejected(swapped, "header field 'utilization_hours'");
  ExpectRejected("date,utilization_hours\n2017-05-01,1\n",
                 "header has 2 fields");
  ExpectRejected("", "missing header");
}

TEST(VehicleDatasetCsvTest, RejectsWrongFieldCount) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(5), Italy()).value();
  std::vector<std::string> lines = Split(ToCsv(ds), '\n');
  std::vector<std::string> extra = lines;
  extra[3] += ",1";
  ExpectRejected(Join(extra, "\n"), "line 4 has 22 fields, expected 21");
  std::vector<std::string> missing = lines;
  missing[2] = missing[2].substr(0, missing[2].rfind(','));
  ExpectRejected(Join(missing, "\n"), "line 3 has 20 fields, expected 21");
}

TEST(VehicleDatasetCsvTest, RejectsZeroRows) {
  auto ds = VehicleDataset::Build(Info(), MakeRecords(5), Italy()).value();
  std::string header = Split(ToCsv(ds), '\n')[0];
  ExpectRejected(header + "\n", "zero days");
  ExpectRejected(header + "\r\n\r\n", "zero days");
}

TEST(VehicleDatasetCsvTest, RejectsDateGap) {
  ExpectRejected(CsvWithCell(5, 2, 0, "2017-05-04"), "gap before 2017-05-04");
  ExpectRejected(CsvWithCell(5, 2, 0, "2017-02-30"), "line 4, column 'date'");
}

TEST(VehicleDatasetCsvTest, WriteRefusesWhatReadWouldReject) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 1e-310}) {
    std::vector<DailyUsageRecord> recs = MakeRecords(4);
    recs[2].fuel_used_l = bad;
    auto ds = VehicleDataset::Build(Info(), recs, Italy()).value();
    std::ostringstream os;
    Status s = ds.WriteCsv(os);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("column 'fuel_used_l'"), std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace vup
