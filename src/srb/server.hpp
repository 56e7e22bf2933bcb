// The SRB server: accepts broker connections over the fabric and services
// the synchronous POSIX-like verb set against MCAT + the object store.
// One session thread per connection, mirroring the real SRB's agent-per-
// connection model, so many concurrent client streams progress in parallel
// against the shared shaped disk.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "simnet/fabric.hpp"
#include "srb/mcat.hpp"
#include "srb/object_store.hpp"
#include "srb/protocol.hpp"
#include "srb/tenant.hpp"

namespace remio::srb {

struct ServerConfig {
  std::string host = "orion";
  int port = 5544;
  StoreConfig store;
  std::string resource = "orion-disk";
  std::string banner = "remio-srb 3.2.1-sim";
  /// Multi-tenant mode (src/srb/tenant.hpp). Default OFF: tenant strings
  /// in kConnect are ignored and the broker behaves exactly as before.
  TenantConfig tenants;
};

class SrbServer {
 public:
  SrbServer(simnet::Fabric& fabric, ServerConfig cfg = {});
  ~SrbServer();

  SrbServer(const SrbServer&) = delete;
  SrbServer& operator=(const SrbServer&) = delete;

  void start();
  void stop();

  Mcat& mcat() { return mcat_; }
  ObjectStore& store() { return store_; }
  TenantRegistry& tenants() { return tenants_; }
  DrrScheduler& scheduler() { return scheduler_; }
  const ServerConfig& config() const { return cfg_; }

  std::uint64_t sessions_served() const { return sessions_served_.load(); }

 private:
  class Session;
  void accept_loop();
  void reap_finished_sessions();

  simnet::Fabric& fabric_;
  ServerConfig cfg_;
  Mcat mcat_;
  ObjectStore store_;
  TenantRegistry tenants_;
  DrrScheduler scheduler_;
  std::shared_ptr<simnet::Acceptor> acceptor_;
  std::thread accept_thread_;
  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_served_{0};
};

}  // namespace remio::srb
