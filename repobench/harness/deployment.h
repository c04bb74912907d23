// The benchmark's deployment: a seeded federation of Teradata plus two
// simulated remote engines, onboarded the way a production deployment
// would be — engine creation, sub-op calibration probes, logical-op
// training collection and MLP training, profile registration, and the
// serving stack (estimate cache behind an admission controller).
//
//   hive      hybrid profile: logical-op networks for join and aggregation,
//             sub-op formulas for scans (and the fallback)
//   spark     sub-op formulas only
//   teradata  the master engine's analytic local cost model
//
// The catalog holds kBaseTables fixed tables spread over the three sites,
// each registered once per growth step (rows doubled per step) so the
// feedback-drift workload can grow its inputs past the trained range. The
// onboarding is fixed (kOnboardingSeed); the run seed drives the workload
// inputs and the engines that execute them.

#ifndef REPOBENCH_HARNESS_DEPLOYMENT_H_
#define REPOBENCH_HARNESS_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "federation/intellisphere.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/properties.h"
#include "util/status.h"

namespace repobench {

using intellisphere::Result;
using intellisphere::Status;

inline constexpr int kBaseTables = 10;
inline constexpr int kGrowthSteps = 4;
/// Seed of the onboarding itself (the registered engines' noise, the
/// training grid, the networks' initialization). It is fixed: the
/// benchmark's deployment is one deployment, and the run seed varies the
/// workload around it, so runs with different seeds judge the same models.
inline constexpr uint64_t kOnboardingSeed = 2020;
/// Largest row count the hive logical-op networks train on; operators
/// beyond it are out of the trained range and engage the online remedy.
inline constexpr int64_t kTrainedRowsMax = 2000000;

struct DeploymentOptions {
  /// Negative control: calibrate and train the hive profile against a
  /// cluster whose per-record costs and job overheads are a quarter of the
  /// one that executes the queries, so every hive estimate is too cheap.
  bool miscalibrated_hive = false;
};

/// Wall-clock time of the onboarding steps that have a layer of their own.
struct SetupTimes {
  double calibrate_s = 0.0;  ///< sub-op calibration probes (remote/simcluster)
  double collect_s = 0.0;    ///< logical-op training executions
  double train_s = 0.0;      ///< MLP training (ml)
};

/// One registered catalog table.
struct TableInfo {
  std::string name;
  int64_t rows = 0;
  int64_t row_bytes = 0;
  std::string location;
};

class Deployment {
 public:
  [[nodiscard]] static Result<std::unique_ptr<Deployment>> Create(
      const DeploymentOptions& options, SetupTimes* times);

  intellisphere::fed::IntelliSphere& sphere() { return sphere_; }
  const intellisphere::serving::EstimationService& service() const {
    return *service_;
  }
  const intellisphere::serving::AdmissionController& admission() const {
    return *admission_;
  }

  /// Replaces the estimation service and admission controller with fresh
  /// ones (empty cache, empty admission state) and attaches them.
  [[nodiscard]] Status ResetServing();
  /// Restores the hive profile to the onboarded incumbent (undoing any
  /// lifecycle swaps). Bumps the model epoch.
  [[nodiscard]] Status RestoreHiveProfile();

  /// Table `base` (0..kBaseTables-1) at growth step `step` (rows x 2^step).
  const TableInfo& table(int base, int step) const {
    return tables_[static_cast<size_t>(step * kBaseTables + base)];
  }

 private:
  Deployment() = default;

  intellisphere::fed::IntelliSphere sphere_;
  std::unique_ptr<intellisphere::serving::EstimationService> service_;
  std::unique_ptr<intellisphere::serving::AdmissionController> admission_;
  std::vector<TableInfo> tables_;
  intellisphere::Properties hive_snapshot_;
};

/// Service options every workload uses: default cache (capacity 4096),
/// misses computed inline on the client thread.
intellisphere::serving::ServiceOptions BenchServiceOptions();
/// Admission sized for nominal load: generous tenant buckets and a short
/// modeled service time, so planning traffic is served at full fidelity.
intellisphere::serving::AdmissionOptions BenchAdmissionOptions();

/// Seeds of the simulated engines an execution oracle uses. They differ
/// from the registered engines' seeds, so quality is judged on executions
/// the profiles never saw.
uint64_t OracleEngineSeed(uint64_t seed, const std::string& system);

}  // namespace repobench

#endif  // REPOBENCH_HARNESS_DEPLOYMENT_H_
