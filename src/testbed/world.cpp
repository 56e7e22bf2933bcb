#include "testbed/world.hpp"

#include <stdexcept>

#include "simnet/timescale.hpp"

namespace remio::testbed {

Testbed::Testbed(const ClusterSpec& cluster, int nodes, const ServerSpec& server)
    : cluster_(cluster), server_spec_(server) {
  if (nodes < 1 || nodes > cluster.max_nodes)
    throw std::invalid_argument("Testbed: node count out of range for " + cluster.name);

  using simnet::TokenBucket;
  if (cluster_.uplink_out_rate > 0)
    uplink_out_ = std::make_shared<TokenBucket>(cluster_.uplink_out_rate, 0.0,
                                                cluster_.name + "-uplink-out");
  if (cluster_.uplink_in_rate > 0)
    uplink_in_ = std::make_shared<TokenBucket>(cluster_.uplink_in_rate, 0.0,
                                               cluster_.name + "-uplink-in");
  if (cluster_.nat)
    nat_ = std::make_shared<TokenBucket>(cluster_.nat_rate, 0.0,
                                         cluster_.name + "-nat");
  interconnect_ = std::make_shared<TokenBucket>(
      cluster_.mpi_rate * nodes, 0.0, cluster_.name + "-interconnect");

  // Server host: one aggregate bucket per direction for the 6 data NICs.
  {
    simnet::HostSpec hs;
    hs.name = server_spec_.host;
    hs.latency_to_core = server_spec_.one_way_to_core;
    auto nic_in = std::make_shared<TokenBucket>(server_spec_.nic_rate, 0.0, "orion-nic-in");
    auto nic_out = std::make_shared<TokenBucket>(server_spec_.nic_rate, 0.0, "orion-nic-out");
    hs.ingress = {nic_in};
    hs.egress = {nic_out};
    fabric_.add_host(std::move(hs));
  }

  nodes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    Node n;
    n.bus = std::make_shared<TokenBucket>(cluster_.node_bus_rate, 0.0,
                                          node_host(i) + "-bus");
    if (cluster_.bus_contention_penalty < 1.0)
      n.bus->set_contention(cluster_.bus_contention_penalty);
    n.nic_out = std::make_shared<TokenBucket>(cluster_.node_nic_rate, 0.0,
                                              node_host(i) + "-nic-out");
    n.nic_in = std::make_shared<TokenBucket>(cluster_.node_nic_rate, 0.0,
                                             node_host(i) + "-nic-in");

    simnet::HostSpec hs;
    hs.name = node_host(i);
    hs.latency_to_core = cluster_.one_way_to_core;
    hs.egress = {n.nic_out};
    if (nat_) hs.egress.push_back(nat_);
    if (uplink_out_) hs.egress.push_back(uplink_out_);
    if (uplink_in_) hs.ingress.push_back(uplink_in_);
    if (nat_) hs.ingress.push_back(nat_);
    hs.ingress.push_back(n.nic_in);
    fabric_.add_host(std::move(hs));
    nodes_.push_back(std::move(n));
  }

  srb::ServerConfig scfg;
  scfg.host = server_spec_.host;
  scfg.port = server_spec_.port;
  scfg.store.disk_read_rate = server_spec_.disk_read_rate;
  scfg.store.disk_write_rate = server_spec_.disk_write_rate;
  server_ = std::make_unique<srb::SrbServer>(fabric_, scfg);
  server_->start();
}

Testbed::~Testbed() {
  server_->stop();
  fabric_.shutdown();
}

std::string Testbed::node_host(int rank) const {
  return cluster_.name + "-node" + std::to_string(rank);
}

semplar::Config Testbed::semplar_config(int rank, int streams_per_node,
                                        int io_threads, bool charge_bus) const {
  if (rank < 0 || rank >= node_count())
    throw std::invalid_argument("semplar_config: bad rank");
  semplar::Config cfg;
  cfg.client_host = node_host(rank);
  cfg.server_host = server_spec_.host;
  cfg.server_port = server_spec_.port;
  cfg.streams_per_node = streams_per_node;
  cfg.io_threads = io_threads;
  // Auto striping: a request of at least one window (the paper's §7.2
  // arrays) is split contiguously and evenly, one broker round trip per
  // stream; a smaller one goes whole to the next stream in turn.
  cfg.stripe_size = semplar::Config::kAutoStripe;
  cfg.conn.tcp_window = cluster_.tcp_window;
  if (charge_bus) cfg.conn.extra.push_back(nodes_[static_cast<std::size_t>(rank)].bus);
  return cfg;
}

mpi::TransportModel Testbed::mpi_transport() const {
  // Captured by value: buckets are shared_ptr, latency/time scale are POD.
  const double latency = cluster_.mpi_latency;
  auto interconnect = interconnect_;
  std::vector<std::shared_ptr<simnet::TokenBucket>> buses;
  buses.reserve(nodes_.size());
  for (const auto& n : nodes_) buses.push_back(n.bus);

  return [latency, interconnect, buses](int src, int dst, std::size_t bytes) {
    if (src == dst || bytes == 0) return;
    // The interconnect NIC sits on the same node I/O bus as the Ethernet
    // NIC (§7.1): charge the bus on both ends (class 2 = MPI traffic, so
    // concurrent WAN traffic triggers the bus's contention penalty), then
    // the switch fabric.
    buses[static_cast<std::size_t>(src)]->acquire(bytes, 2);
    buses[static_cast<std::size_t>(dst)]->acquire(bytes, 2);
    interconnect->acquire(bytes);
    simnet::sleep_sim(latency);
  };
}

void Testbed::compute(double sim_seconds) const {
  simnet::sleep_sim(sim_seconds / cluster_.cpu_speed);
}

}  // namespace remio::testbed
