#include "src/workload/poisson_flows.h"

namespace occamy::workload {

PairSampler DefaultPairSampler(std::vector<net::NodeId> hosts) {
  return [hosts = std::move(hosts)](Rng& rng) {
    const size_t n = hosts.size();
    const size_t src = rng.UniformInt(n);
    size_t dst = rng.UniformInt(n - 1);
    if (dst >= src) ++dst;
    return std::make_pair(hosts[src], hosts[dst]);
  };
}

Time MeanInterarrivalOf(const PoissonFlowConfig& config) {
  const double mean_size = config.size_dist.Mean();
  const double aggregate_bytes_per_sec =
      config.load * config.host_rate.bytes_per_sec() *
      static_cast<double>(config.hosts.size());
  const double flows_per_sec = aggregate_bytes_per_sec / mean_size;
  return FromSeconds(1.0 / flows_per_sec);
}

}  // namespace occamy::workload
