#include <gtest/gtest.h>

#include <vector>

#include "dflow/sim/credit.h"
#include "dflow/sim/device.h"
#include "dflow/sim/dma.h"
#include "dflow/sim/fabric.h"
#include "dflow/sim/link.h"
#include "dflow/sim/simulator.h"

namespace dflow::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(5, [&] { order.push_back(1); });
  sim.Schedule(5, [&] { order.push_back(2); });
  sim.Schedule(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    sim.Schedule(1, [&] {
      fired = 1;
      EXPECT_EQ(sim.now(), 2u);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RunWithLimitStopsRunaway) {
  Simulator sim;
  std::function<void()> loop = [&] { sim.Schedule(1, loop); };
  sim.Schedule(0, loop);
  EXPECT_FALSE(sim.RunWithLimit(100));
}

TEST(SimulatorTest, ResetClearsState) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.Run();
  sim.Reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

// Counts copies of itself. Event closures capture DataChunks by value, so a
// copy of the closure is a deep copy of the data in flight.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
  int* copies;
};

TEST(SimulatorTest, EventsAreMovedNeverCopied) {
  Simulator sim;
  int copies = 0;
  std::vector<int> order;
  // Four timestamps, each shared by eight events scheduled out of time
  // order, so the heap reorders across times and ties.
  for (int i = 0; i < 32; ++i) {
    CopyCounter payload(&copies);
    sim.Schedule(static_cast<SimTime>(3 - i % 4),
                 [payload = std::move(payload), i, &order] {
                   order.push_back(i);
                 });
  }
  sim.Run();
  EXPECT_EQ(copies, 0);
  std::vector<int> expected;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 32; ++i) {
      if (3 - i % 4 == t) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(LinkTest, WireTimeFromBandwidth) {
  Link link("l", /*gbps=*/1.0, /*latency=*/100);
  // 1 GB/s == 1 byte per ns.
  EXPECT_EQ(link.WireTimeNs(1000), 1000u);
  Link fast("f", 10.0, 0);
  EXPECT_EQ(fast.WireTimeNs(1000), 100u);
}

TEST(LinkTest, TransfersSerialize) {
  Link link("l", 1.0, 50);
  auto t1 = link.Reserve(0, 1000);
  EXPECT_EQ(t1.depart, 1000u);
  EXPECT_EQ(t1.arrive, 1050u);
  // Second message ready at 0 must wait for the wire.
  auto t2 = link.Reserve(0, 500);
  EXPECT_EQ(t2.depart, 1500u);
  EXPECT_EQ(t2.arrive, 1550u);
  EXPECT_EQ(link.bytes_transferred(), 1500u);
  EXPECT_EQ(link.num_messages(), 2u);
}

TEST(LinkTest, IdleGapNotCharged) {
  Link link("l", 1.0, 0);
  (void)link.Reserve(0, 100);
  auto t = link.Reserve(10'000, 100);
  EXPECT_EQ(t.depart, 10'100u);
  EXPECT_EQ(link.busy_ns(), 200u);
}

TEST(DeviceTest, CostIncludesOverheadAndRate) {
  Device dev("d", /*overhead=*/100);
  dev.SetRate(CostClass::kFilter, 2.0);  // 2 bytes/ns
  EXPECT_EQ(dev.CostNs(1000, CostClass::kFilter), 100u + 500u);
}

TEST(DeviceTest, FactorScalesThroughput) {
  Device dev("d", 0);
  dev.SetRate(CostClass::kFilter, 1.0);
  EXPECT_EQ(dev.CostNs(1000, CostClass::kFilter, 2.0), 500u);
}

TEST(DeviceTest, WorkSerializes) {
  Device dev("d", 0);
  dev.SetRate(CostClass::kFilter, 1.0);
  auto w1 = dev.Process(0, 100, CostClass::kFilter);
  auto w2 = dev.Process(50, 100, CostClass::kFilter);
  EXPECT_EQ(w1.end, 100u);
  EXPECT_EQ(w2.start, 100u);
  EXPECT_EQ(w2.end, 200u);
  EXPECT_EQ(dev.busy_ns(), 200u);
  EXPECT_EQ(dev.items_processed(), 2u);
}

TEST(DeviceTest, UnsupportedClassReportsFalse) {
  Device dev("d", 0);
  dev.SetRate(CostClass::kFilter, 1.0);
  EXPECT_TRUE(dev.Supports(CostClass::kFilter));
  EXPECT_FALSE(dev.Supports(CostClass::kSort));
}

TEST(DmaTest, UnlimitedMatchesLinkRate) {
  Link link("l", 10.0, 0);
  DmaEngine dma("dma", &link);
  auto t1 = dma.Transfer(0, 1000);
  EXPECT_EQ(t1.depart, 100u);
  auto t2 = dma.Transfer(0, 1000);
  EXPECT_EQ(t2.depart, 200u);
}

TEST(DmaTest, RateLimitPacesFlow) {
  Link link("l", 10.0, 0);
  DmaEngine dma("dma", &link);
  dma.SetRateLimitGbps(1.0);  // 10x slower than the link
  (void)dma.Transfer(0, 1000);
  auto t2 = dma.Transfer(0, 1000);
  // Second transfer cannot inject before 1000 ns (pacing), even though the
  // link is free after 100 ns.
  EXPECT_GE(t2.depart, 1000u);
}

TEST(DmaTest, RateLimitDoesNotAffectOtherFlows) {
  Link link("l", 10.0, 0);
  DmaEngine slow("slow", &link);
  DmaEngine fast("fast", &link);
  slow.SetRateLimitGbps(0.5);
  (void)slow.Transfer(0, 1000);
  auto t = fast.Transfer(0, 1000);
  // The link itself was only busy 100ns for the slow flow's message.
  EXPECT_LE(t.depart, 200u);
}

TEST(CreditGateTest, AcquireReleaseCycle) {
  CreditGate gate(2);
  EXPECT_TRUE(gate.HasCredit());
  gate.Acquire();
  gate.Acquire();
  EXPECT_FALSE(gate.HasCredit());
  gate.Release();
  EXPECT_TRUE(gate.HasCredit());
  EXPECT_EQ(gate.in_flight_peak(), 2u);
}

TEST(FabricTest, TopologyMatchesConfig) {
  FabricConfig config;
  config.num_compute_nodes = 3;
  Fabric fabric(config);
  EXPECT_EQ(fabric.num_nodes(), 3);
  EXPECT_EQ(fabric.AllLinks().size(), 1u + 3u * 4u);
  EXPECT_EQ(fabric.AllDevices().size(), 3u + 3u * 3u);
}

TEST(FabricTest, CpuSupportsEverythingAcceleratorsDoNot) {
  Fabric fabric;
  auto& n = fabric.node(0);
  EXPECT_TRUE(n.cpu->Supports(CostClass::kJoinBuild));
  EXPECT_TRUE(n.cpu->Supports(CostClass::kSort));
  EXPECT_FALSE(fabric.storage_proc()->Supports(CostClass::kJoinBuild));
  EXPECT_FALSE(fabric.storage_proc()->Supports(CostClass::kSort));
  EXPECT_FALSE(n.nic->Supports(CostClass::kSort));
  EXPECT_FALSE(n.near_mem->Supports(CostClass::kJoinProbe));
}

TEST(FabricTest, AcceleratorsStreamFasterThanCpu) {
  // The central rate relationship the paper's claims depend on.
  Fabric fabric;
  auto& n = fabric.node(0);
  EXPECT_GT(fabric.storage_proc()->RateGbps(CostClass::kFilter),
            n.cpu->RateGbps(CostClass::kFilter));
  EXPECT_GT(n.nic->RateGbps(CostClass::kHash),
            n.cpu->RateGbps(CostClass::kHash));
  EXPECT_GT(n.near_mem->RateGbps(CostClass::kFilter),
            n.cpu->RateGbps(CostClass::kFilter));
}

TEST(FabricTest, CxlSwapsInterconnectParameters) {
  FabricConfig pcie;
  FabricConfig cxl;
  cxl.use_cxl = true;
  Fabric f1(pcie), f2(cxl);
  EXPECT_LT(f1.node(0).interconnect->bandwidth_gbps(),
            f2.node(0).interconnect->bandwidth_gbps());
  EXPECT_GT(f1.node(0).interconnect->latency_ns(),
            f2.node(0).interconnect->latency_ns());
}

TEST(FabricTest, ResetClearsStats) {
  Fabric fabric;
  fabric.node(0).net_rx->Reserve(0, 1000);
  fabric.node(0).cpu->Process(0, 1000, CostClass::kFilter);
  fabric.Reset();
  EXPECT_EQ(fabric.node(0).net_rx->bytes_transferred(), 0u);
  EXPECT_EQ(fabric.node(0).cpu->busy_ns(), 0u);
  EXPECT_EQ(fabric.simulator().now(), 0u);
}

}  // namespace
}  // namespace dflow::sim
