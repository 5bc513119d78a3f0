#include "pipeline/dataset.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"
#include "pipeline/enrich.h"

namespace vup {

const std::vector<std::string>& VehicleDataset::FeatureNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>(
      [] {
        std::vector<std::string> n = {
            "day_hours",       "fuel_used_l",     "engine_load_pct",
            "engine_rpm",      "coolant_temp_c",  "oil_pressure_kpa",
            "fuel_level_pct",  "distance_km",     "idle_hours",
            "dtc_count",
        };
        VUP_CHECK(n.size() == kNumEngineFeatures);
        const std::vector<std::string>& ctx = ContextFeatureNames();
        n.insert(n.end(), ctx.begin(), ctx.end());
        return n;
      }());
  return names;
}

StatusOr<VehicleDataset> VehicleDataset::Build(
    const VehicleInfo& info, std::span<const DailyUsageRecord> records,
    const Country& country) {
  if (records.empty()) {
    return Status::InvalidArgument("cannot build dataset from zero days");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].date - records[i - 1].date != 1) {
      return Status::InvalidArgument(
          "records must cover consecutive dates (gap before " +
          records[i].date.ToString() + "); run CleanDailyRecords first");
    }
  }

  VehicleDataset ds;
  ds.info_ = info;
  ds.country_ = &country;
  const size_t nf = FeatureNames().size();
  ds.dates_.reserve(records.size());
  ds.hours_.reserve(records.size());
  ds.features_.reserve(records.size() * nf);
  for (const DailyUsageRecord& r : records) {
    ds.dates_.push_back(r.date);
    ds.hours_.push_back(r.hours);
    ds.features_.push_back(r.hours);
    ds.features_.push_back(r.fuel_used_l);
    ds.features_.push_back(r.avg_engine_load_pct);
    ds.features_.push_back(r.avg_engine_rpm);
    ds.features_.push_back(r.avg_coolant_temp_c);
    ds.features_.push_back(r.avg_oil_pressure_kpa);
    ds.features_.push_back(r.fuel_level_end_pct);
    ds.features_.push_back(r.distance_km);
    ds.features_.push_back(r.idle_hours);
    ds.features_.push_back(static_cast<double>(r.dtc_count));
    std::vector<double> ctx =
        ContextToVector(ComputeContext(r.date, country));
    ds.features_.insert(ds.features_.end(), ctx.begin(), ctx.end());
  }
  VUP_CHECK(ds.features_.size() == records.size() * nf);
  return ds;
}

double VehicleDataset::feature(size_t day, size_t f) const {
  VUP_CHECK(day < dates_.size()) << "day " << day;
  VUP_CHECK(f < num_features()) << "feature " << f;
  return features_[day * num_features() + f];
}

std::span<const double> VehicleDataset::FeatureRow(size_t day) const {
  VUP_CHECK(day < dates_.size()) << "day " << day;
  return std::span<const double>(features_).subspan(day * num_features(),
                                                    num_features());
}

VehicleDataset VehicleDataset::CompressToWorkingDays(double min_hours) const {
  VehicleDataset out;
  out.info_ = info_;
  out.country_ = country_;
  const size_t nf = num_features();
  for (size_t i = 0; i < dates_.size(); ++i) {
    if (hours_[i] < min_hours) continue;
    out.dates_.push_back(dates_[i]);
    out.hours_.push_back(hours_[i]);
    std::span<const double> row = FeatureRow(i);
    out.features_.insert(out.features_.end(), row.begin(), row.end());
  }
  VUP_CHECK(out.features_.size() == out.dates_.size() * nf);
  return out;
}

namespace {

/// CSV columns: date, the target, then every feature.
const std::vector<std::string>& CsvColumns() {
  static const std::vector<std::string>& columns =
      *new std::vector<std::string>([] {
        std::vector<std::string> c = {"date", "utilization_hours"};
        const std::vector<std::string>& names = VehicleDataset::FeatureNames();
        c.insert(c.end(), names.begin(), names.end());
        return c;
      }());
  return columns;
}

/// The one value class both directions of the codec accept: zero or a
/// normal finite double (ParseDouble rejects subnormals as out of range).
bool CsvRepresentable(double v) { return v == 0.0 || std::isnormal(v); }

void AppendCsvDouble(std::string* out, double v) {
  char buf[32];  // Shortest round-trip form is at most 24 chars.
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  VUP_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

/// Splits a CSV line on ',' into `cells` (views into `line`).
void SplitCsvLine(std::string_view line, std::vector<std::string_view>* cells) {
  cells->clear();
  size_t start = 0;
  size_t comma;
  while ((comma = line.find(',', start)) != line.npos) {
    cells->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  cells->push_back(line.substr(start));
}

bool ReadCsvLine(std::istream& is, std::string* line) {
  if (!std::getline(is, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

Status CellError(size_t line_no, size_t column, const std::string& what) {
  return Status::InvalidArgument(StrFormat("line %zu, column '%s': %s",
                                           line_no,
                                           CsvColumns()[column].c_str(),
                                           what.c_str()));
}

}  // namespace

Status VehicleDataset::WriteCsv(std::ostream& os) const {
  const std::vector<std::string>& columns = CsvColumns();
  std::string row = Join(columns, ",");
  row += '\n';
  os << row;
  for (size_t i = 0; i < dates_.size(); ++i) {
    row = dates_[i].ToString();
    std::span<const double> features = FeatureRow(i);
    for (size_t c = 1; c < columns.size(); ++c) {
      const double v = c == 1 ? hours_[i] : features[c - 2];
      if (!CsvRepresentable(v)) {
        return Status::InvalidArgument(
            StrFormat("day %s, column '%s': %g has no CSV form",
                      dates_[i].ToString().c_str(), columns[c].c_str(), v));
      }
      row += ',';
      AppendCsvDouble(&row, v);
    }
    row += '\n';
    os << row;
  }
  os.flush();
  if (!os) return Status::DataLoss("CSV stream write failed");
  return Status::OK();
}

StatusOr<VehicleDataset> VehicleDataset::ReadCsv(std::istream& is,
                                                 const VehicleInfo& info,
                                                 const Country& country) {
  const std::vector<std::string>& columns = CsvColumns();
  std::string line;
  if (!ReadCsvLine(is, &line)) {
    return Status::InvalidArgument("empty CSV input (missing header)");
  }
  std::vector<std::string_view> cells;
  SplitCsvLine(line, &cells);
  if (cells.size() != columns.size()) {
    return Status::InvalidArgument(
        StrFormat("header has %zu fields, expected %zu", cells.size(),
                  columns.size()));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (cells[c] != columns[c]) {
      return Status::InvalidArgument("header field '" + std::string(cells[c]) +
                                     "' does not match '" + columns[c] +
                                     "'");
    }
  }

  std::vector<DailyUsageRecord> records;
  std::vector<double> values(columns.size());
  for (size_t line_no = 2; ReadCsvLine(is, &line); ++line_no) {
    if (line.empty()) continue;
    SplitCsvLine(line, &cells);
    if (cells.size() != columns.size()) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_no,
                    cells.size(), columns.size()));
    }
    DailyUsageRecord rec;
    StatusOr<Date> date = Date::Parse(cells[0]);
    if (!date.ok()) return CellError(line_no, 0, date.status().message());
    rec.date = date.value();
    for (size_t c = 1; c < columns.size(); ++c) {
      StatusOr<double> v = ParseDouble(cells[c]);
      if (!v.ok()) return CellError(line_no, c, v.status().message());
      if (!std::isfinite(v.value())) {
        return CellError(line_no, c, "value is not finite");
      }
      values[c] = v.value();
    }
    // values[2] is day_hours, the same series as utilization_hours; the
    // engine features follow it in FeatureNames() order.
    const double dtc = values[2 + kNumEngineFeatures - 1];
    if (dtc != std::trunc(dtc) || dtc < INT_MIN || dtc > INT_MAX) {
      return CellError(line_no, 2 + kNumEngineFeatures - 1,
                       "not an integer in int range");
    }
    rec.hours = values[1];
    rec.fuel_used_l = values[3];
    rec.avg_engine_load_pct = values[4];
    rec.avg_engine_rpm = values[5];
    rec.avg_coolant_temp_c = values[6];
    rec.avg_oil_pressure_kpa = values[7];
    rec.fuel_level_end_pct = values[8];
    rec.distance_km = values[9];
    rec.idle_hours = values[10];
    rec.dtc_count = static_cast<int>(dtc);
    records.push_back(rec);
  }
  return Build(info, records, country);
}

}  // namespace vup
