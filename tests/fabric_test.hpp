// The two-host fabric the simnet suites share: "client" and "server", 100 ms
// apart one way, on a fast time scale (coarse tolerances).
#pragma once

#include <gtest/gtest.h>

#include "simnet/fabric.hpp"
#include "simnet/timescale.hpp"

namespace remio::simnet {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : scale_(200.0) {
    HostSpec client;
    client.name = "client";
    client.latency_to_core = 0.05;  // 100 ms one-way client<->server
    fabric_.add_host(client);

    HostSpec server;
    server.name = "server";
    server.latency_to_core = 0.05;
    fabric_.add_host(server);
  }

  ScopedTimeScale scale_;
  Fabric fabric_;
};

}  // namespace remio::simnet
