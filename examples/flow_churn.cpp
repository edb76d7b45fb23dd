// Example: flow churn — the dynamics the paper's Limitations section sets
// aside. Short heavy-tailed flows arrive Poisson (a one-class open-loop
// workload) and compete with two long-running flows; prints the class's
// flow-completion-time percentiles and slowdown, and what the churn does
// to the long flows.
//
//   ./build/examples/flow_churn [arrivals_per_sec] [mbps] [background_cca]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/harness/report.h"
#include "src/harness/runner.h"

int main(int argc, char** argv) {
  using namespace ccas;

  const double rate = argc > 1 ? std::atof(argv[1]) : 80.0;
  const int mbps = argc > 2 ? std::atoi(argv[2]) : 100;
  const std::string bg = argc > 3 ? argv[3] : "cubic";

  ExperimentSpec spec;
  spec.scenario.net.bottleneck_rate = DataRate::mbps(mbps);
  spec.scenario.net.buffer_bytes =
      bdp_bytes(spec.scenario.net.bottleneck_rate, TimeDelta::millis(200));
  spec.scenario.stagger = TimeDelta::seconds(1);
  spec.scenario.warmup = TimeDelta::seconds(2);
  spec.scenario.measure = TimeDelta::seconds(40);
  spec.groups.push_back(FlowGroup{bg, 2, TimeDelta::millis(20)});
  spec.seed = 42;

  WorkloadClass churn;
  churn.name = "churn";
  churn.cca = "newreno";
  churn.rtt = TimeDelta::millis(20);
  churn.size.kind = SizeDistKind::kPareto;  // bounded Pareto
  churn.size.min_segments = 8;              // ~12 KB
  churn.size.max_segments = 50'000;         // ~72 MB
  churn.size.pareto_alpha = 1.2;
  spec.workload.classes.push_back(churn);
  spec.workload.arrivals_per_sec = rate;

  std::printf("Churn: Poisson %.0f flows/s (bounded-Pareto sizes) + 2 long %s "
              "flows over %d Mbps...\n\n",
              rate, bg.c_str(), mbps);
  const ExperimentResult r = run_experiment(spec);

  Table t({"class", "cca", "arrivals", "completed", "P50 FCT (s)",
           "P90 FCT (s)", "P99 FCT (s)", "mean slowdown"});
  for (const WorkloadClassResult& c : r.workload_classes) {
    t.row()
        .col(c.name)
        .col(c.cca)
        .col(static_cast<int64_t>(c.arrivals))
        .col(static_cast<int64_t>(c.completed))
        .col(c.p50_fct_s, 3)
        .col(c.p90_fct_s, 3)
        .col(c.p99_fct_s, 3)
        .col(c.mean_slowdown, 2)
        .done();
  }
  t.print();

  // Long flows are measured over the measurement window; churn flows start
  // mid-run, so their goodput averages over the whole run.
  const double payload_capacity =
      static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()) *
      static_cast<double>(kMssBytes) / static_cast<double>(kDataPacketBytes);
  std::printf("\nutilization %.1f%% (long flows %.1f%% + churn %.1f%%), "
              "long-flow goodput %s, queue drops %llu\n",
              (r.aggregate_goodput_bps + r.workload_goodput_bps) /
                  payload_capacity * 100.0,
              r.utilization * 100.0,
              r.workload_goodput_bps / payload_capacity * 100.0,
              format_rate(r.aggregate_goodput_bps).c_str(),
              static_cast<unsigned long long>(r.queue.dropped_packets));
  std::printf("\nHeavy tail in action: most flows are mice, but they must "
              "cross the queue\nthe elephants (and the long %s flows) build, "
              "so their slowdown sits far above 1.\n",
              bg.c_str());
  return 0;
}
