// The benchmark's four workloads. Each factory generates every input from
// the seed up front (input generation is not part of set-up); each Round()
// then builds a fresh machine from those inputs, runs it and checks every
// output, so rounds of one workload are identical in simulated time.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RoundResult Round(Spans& spans, const Telemetry& telemetry) = 0;
};

// Names in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();
// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 seed);

std::unique_ptr<Workload> MakeFilterWorkload(u64 seed);   // filter-1cpu
std::unique_ptr<Workload> MakeUpgradeWorkload(u64 seed);  // upgrade-churn
std::unique_ptr<Workload> MakeWebWorkload(u64 seed);      // web-4cpu
std::unique_ptr<Workload> MakeExtWorkload(u64 seed);      // ext-compute

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
