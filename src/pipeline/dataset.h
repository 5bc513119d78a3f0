#ifndef VUPRED_PIPELINE_DATASET_H_
#define VUPRED_PIPELINE_DATASET_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "calendar/country.h"
#include "common/statusor.h"
#include "telemetry/usage_model.h"
#include "telemetry/vehicle.h"

namespace vup {

/// Preparation step (v), Transformation: one vehicle's cleaned daily history
/// in relational form -- a date-indexed target series (daily utilization
/// hours) plus a dense per-day feature matrix combining CAN-derived engine
/// features with the contextual enrichment.
///
/// This is the object the core methodology consumes: windowing slices its
/// rows into training records, feature selection picks day-lags of it.
class VehicleDataset {
 public:
  /// Number of engine (CAN-derived) features per day.
  static constexpr size_t kNumEngineFeatures = 10;

  /// All per-day feature names: engine features then context features.
  static const std::vector<std::string>& FeatureNames();

  /// Builds from cleaned records. Requirements: records non-empty, dates
  /// strictly consecutive (run CleanDailyRecords first); violations return
  /// InvalidArgument.
  static StatusOr<VehicleDataset> Build(
      const VehicleInfo& info, std::span<const DailyUsageRecord> records,
      const Country& country);

  const VehicleInfo& info() const { return info_; }
  size_t num_days() const { return dates_.size(); }
  const std::vector<Date>& dates() const { return dates_; }

  /// The target series H_t, aligned with dates().
  const std::vector<double>& hours() const { return hours_; }

  size_t num_features() const { return FeatureNames().size(); }

  /// Feature value of day `day` (row) and feature `f` (column).
  double feature(size_t day, size_t f) const;

  /// All features of one day.
  std::span<const double> FeatureRow(size_t day) const;

  /// The country context used at build time.
  const Country& country() const { return *country_; }

  /// Next-working-day view: drops days with hours < min_hours, compressing
  /// the series so "next row" means "next working day" (the paper's second
  /// scenario). Dates are preserved so calendar features stay truthful.
  VehicleDataset CompressToWorkingDays(double min_hours = 1.0) const;

  /// CSV codec for one vehicle's history, one row per day. The header is
  /// `date,utilization_hours` then every FeatureNames() column; dates are
  /// YYYY-MM-DD and every double is written in its shortest round-trip
  /// form, so ReadCsv(WriteCsv(ds)) reproduces `ds` bit for bit. Cells are
  /// never quoted. Refuses (InvalidArgument) a value ReadCsv would reject:
  /// one that is neither zero nor a normal finite double.
  Status WriteCsv(std::ostream& os) const;

  /// Inverse of WriteCsv. Rules: the header must match name for name; each
  /// row has exactly the header's field count; every cell parses strictly
  /// (no quoting, no empty cells) as a finite double or date, and
  /// dtc_count as an integer in int range; CRLF line ends and blank lines
  /// are tolerated; dates must be consecutive. Violations return
  /// InvalidArgument; a bad cell names its line and column. Context
  /// columns are validated but ignored: they are recomputed from the dates
  /// and `country` through Build, so stale context cannot leak back in.
  static StatusOr<VehicleDataset> ReadCsv(std::istream& is,
                                          const VehicleInfo& info,
                                          const Country& country);

 private:
  VehicleDataset() = default;

  VehicleInfo info_;
  const Country* country_ = nullptr;
  std::vector<Date> dates_;
  std::vector<double> hours_;
  std::vector<double> features_;  // Row-major, num_days x num_features.
};

}  // namespace vup

#endif  // VUPRED_PIPELINE_DATASET_H_
