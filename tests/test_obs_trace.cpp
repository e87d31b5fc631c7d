// Packet-lifecycle trace sink: config validation, node/time filtering,
// the truncation cap, JSONL shape and end-to-end determinism of a traced
// netsim run (the golden-trace anchor) across replication thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/models.hpp"
#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wsn::obs {
namespace {

TraceEvent Event(double t, std::size_t node) {
  TraceEvent e;
  e.t = t;
  e.event = "tx";
  e.node = node;
  return e;
}

TEST(TraceConfig, ValidateRejectsDegenerateSettings) {
  TraceConfig bad_window;
  bad_window.from_s = 10.0;
  bad_window.until_s = 10.0;
  EXPECT_THROW(bad_window.Validate(), util::InvalidArgument);

  TraceConfig no_room;
  no_room.max_events = 0;
  EXPECT_THROW(no_room.Validate(), util::InvalidArgument);
}

TEST(TraceSink, FiltersByNodeSet) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.nodes = {7, 3, 7};  // unsorted with a duplicate: sink normalizes
  TraceSink sink(cfg);
  EXPECT_TRUE(sink.Accepts(1.0, 3));
  EXPECT_TRUE(sink.Accepts(1.0, 7));
  EXPECT_FALSE(sink.Accepts(1.0, 5));
}

TEST(TraceSink, FiltersByTimeWindow) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.from_s = 10.0;
  cfg.until_s = 20.0;
  TraceSink sink(cfg);
  EXPECT_FALSE(sink.Accepts(9.99, 0));
  EXPECT_TRUE(sink.Accepts(10.0, 0));   // from is inclusive
  EXPECT_FALSE(sink.Accepts(20.0, 0));  // until is exclusive
}

TEST(TraceSink, CapSetsTruncatedOnlyWhenAnAcceptedEventIsDropped) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.max_events = 2;
  cfg.until_s = 100.0;
  TraceSink sink(cfg);
  sink.Record(Event(1.0, 0));
  sink.Record(Event(200.0, 0));  // filtered out: does not count or truncate
  sink.Record(Event(2.0, 0));
  EXPECT_EQ(sink.Events(), 2u);
  EXPECT_FALSE(sink.Truncated());
  sink.Record(Event(3.0, 0));  // accepted but over the cap
  EXPECT_EQ(sink.Events(), 2u);
  EXPECT_TRUE(sink.Truncated());
}

TEST(TraceSink, EmitsOneJsonObjectPerLine) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.replication = 4;
  TraceSink sink(cfg);
  TraceEvent e = Event(0.5, 2);
  e.packet = 9;
  e.has_packet = true;
  e.cause = "no-route";
  sink.Record(e);

  const std::string text = sink.Text();
  std::istringstream lines(text);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"rep\":4"), std::string::npos);
  EXPECT_NE(line.find("\"ev\":\"tx\""), std::string::npos);
  EXPECT_NE(line.find("\"node\":2"), std::string::npos);
  EXPECT_NE(line.find("\"pkt\":9"), std::string::npos);
  EXPECT_NE(line.find("\"cause\":\"no-route\""), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line)) << "exactly one line expected";
}

// ---------------------------------------------------------------- netsim

netsim::NetSimConfig TinyChain() {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = 15.0;
  cfg.network.node.cpu.service_rate = 150.0;
  cfg.network.node.sample_bits = 2048;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = 0.3;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 60.0;
  cfg.positions = {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}};
  cfg.horizon_s = 20.0;
  return cfg;
}

// Golden-trace anchor: the same (config, seed) must yield the same trace
// text on every run, every line must carry the lifecycle schema, and a
// delivered packet must appear as gen -> enqueue -> tx -> deliver.
TEST(NetSimTrace, DeterministicLifecycleTrace) {
  netsim::NetSimConfig cfg = TinyChain();
  cfg.obs.trace.enabled = true;
  const core::MarkovCpuModel model;

  const auto run = [&] {
    netsim::NetworkSimulator sim(cfg, netsim::CpuAveragePowerMw(cfg, model),
                                 util::Rng(3));
    return sim.Run().trace;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());  // byte-identical on a re-run
  ASSERT_FALSE(first.empty());

  std::istringstream lines(first);
  std::string line;
  bool saw_gen = false, saw_tx = false, saw_deliver = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"rep\":0"), std::string::npos);
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
    saw_gen = saw_gen || line.find("\"ev\":\"gen\"") != std::string::npos;
    saw_tx = saw_tx || line.find("\"ev\":\"tx\"") != std::string::npos;
    saw_deliver =
        saw_deliver || line.find("\"ev\":\"deliver\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_gen);
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_deliver);
}

// The concatenated multi-replication trace must not depend on how many
// threads ran the replications, and each replication stamps its index.
TEST(NetSimTrace, ConcatenatedTraceIndependentOfThreadCount) {
  netsim::NetSimConfig cfg = TinyChain();
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.until_s = 5.0;  // keep the buffers small
  const core::MarkovCpuModel model;

  netsim::ReplicationConfig serial;
  serial.replications = 4;
  serial.seed = 11;
  netsim::ReplicationConfig parallel = serial;

  util::ParallelExecutor one(1);
  util::ParallelExecutor four(4);
  const netsim::ReplicationSummary rs =
      RunReplications(cfg, model, serial, one);
  const netsim::ReplicationSummary rp =
      RunReplications(cfg, model, parallel, four);
  ASSERT_FALSE(rs.trace.empty());
  EXPECT_EQ(rs.trace, rp.trace);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_NE(rs.trace.find("\"rep\":" + std::to_string(r)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace wsn::obs
