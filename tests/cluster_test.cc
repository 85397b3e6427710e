// Copyright 2026 The SemTree Authors
//
// Tests for the simulated cluster: mailboxes, RPC, forwarding, the
// latency model and shutdown semantics.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/stopwatch.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// Mailbox

TEST(MailboxTest, FifoOrder) {
  Mailbox box;
  for (uint32_t i = 0; i < 10; ++i) {
    Message m;
    m.type = i;
    box.Push(std::move(m));
  }
  EXPECT_EQ(box.size(), 10u);
  Message out;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.Pop(&out));
    EXPECT_EQ(out.type, i);
  }
}

TEST(MailboxTest, CloseUnblocksAndDrains) {
  Mailbox box;
  Message m;
  m.type = 1;
  box.Push(std::move(m));
  box.Close();
  Message out;
  EXPECT_TRUE(box.Pop(&out));   // Pending message still delivered.
  EXPECT_FALSE(box.Pop(&out));  // Then closed-and-empty.
  Message late;
  box.Push(std::move(late));    // Pushes after close are dropped.
  EXPECT_FALSE(box.Pop(&out));
}

TEST(MailboxTest, PopBlocksUntilPush) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread consumer([&]() {
    Message out;
    if (box.Pop(&out)) got.store(true);
  });
  Message m;
  box.Push(std::move(m));
  consumer.join();
  EXPECT_TRUE(got.load());
}

// ---------------------------------------------------------------------
// RPC

constexpr uint32_t kEcho = 1;
constexpr uint32_t kAddOne = 2;
constexpr uint32_t kRelay = 3;

TEST(ClusterTest, BasicCallResponse) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kEcho, [&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });
  node->Start();

  auto result = cluster.CallAndWait(node->id(), kEcho,
                                    MakePayload<int>(41));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(PayloadAs<int>(*result), 41);
}

TEST(ClusterTest, ManyConcurrentCalls) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kAddOne, [&cluster](const Message& m) {
    cluster.Respond(m, MakePayload<int>(PayloadAs<int>(m.payload) + 1));
  });
  node->Start();

  std::vector<std::future<Payload>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(cluster.Call(node->id(), kAddOne,
                                   MakePayload<int>(i)));
  }
  for (int i = 0; i < 500; ++i) {
    Payload p = futures[static_cast<size_t>(i)].get();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(PayloadAs<int>(p), i + 1);
  }
  EXPECT_EQ(node->processed(), 500u);
}

TEST(ClusterTest, NestedCallsAcrossNodes) {
  // Node A relays to node B and augments the answer: exercises blocking
  // a worker on a downstream RPC. In SemTree only build-partition does
  // this, sending each moved leaf's bulk build to fresh partitions that
  // call nobody.
  Cluster cluster;
  ComputeNode* b = cluster.AddNode();
  b->RegisterHandler(kAddOne, [&cluster](const Message& m) {
    cluster.Respond(m, MakePayload<int>(PayloadAs<int>(m.payload) + 1));
  });
  b->Start();
  ComputeNode* a = cluster.AddNode();
  NodeId b_id = b->id();
  a->RegisterHandler(kRelay, [&cluster, b_id](const Message& m) {
    auto inner = cluster.CallAndWait(b_id, kAddOne, m.payload, 8,
                                     m.to);
    ASSERT_TRUE(inner.ok());
    cluster.Respond(m, MakePayload<int>(PayloadAs<int>(*inner) * 10));
  });
  a->Start();

  auto result = cluster.CallAndWait(a->id(), kRelay, MakePayload<int>(4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PayloadAs<int>(*result), 50);  // (4+1)*10
}

TEST(ClusterTest, ForwardPreservesCorrelation) {
  // A chain of nodes forwards the request; only the last responds, yet
  // the original caller's future resolves (the insert protocol).
  Cluster cluster;
  std::vector<ComputeNode*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(cluster.AddNode());
  for (int i = 0; i < 4; ++i) {
    NodeId next = (i + 1 < 4) ? nodes[size_t(i) + 1]->id() : -1;
    nodes[size_t(i)]->RegisterHandler(
        kRelay, [&cluster, next, i](const Message& m) {
          if (next >= 0) {
            PayloadAs<int>(m.payload) += 1;
            cluster.Forward(m, next, m.to);
          } else {
            cluster.Respond(
                m, MakePayload<int>(PayloadAs<int>(m.payload) + 100 * i));
          }
        });
    nodes[size_t(i)]->Start();
  }
  auto result =
      cluster.CallAndWait(nodes[0]->id(), kRelay, MakePayload<int>(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PayloadAs<int>(*result), 3 + 300);
  EXPECT_EQ(cluster.Stats().forwards, 3u);
}

TEST(ClusterTest, OneWaySendReachesHandler) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode();
  std::atomic<int> received{0};
  node->RegisterHandler(kEcho, [&received](const Message&) {
    received.fetch_add(1);
  });
  node->Start();
  for (int i = 0; i < 20; ++i) {
    cluster.Send(node->id(), kEcho, MakePayload<int>(i));
  }
  // One-way messages have no completion signal; poll briefly.
  for (int spin = 0; spin < 200 && received.load() < 20; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), 20);
}

TEST(ClusterTest, StatsAccountMessagesAndBytes) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kEcho, [&cluster](const Message& m) {
    cluster.Respond(m, m.payload, 100);
  });
  node->Start();
  ASSERT_TRUE(cluster.CallAndWait(node->id(), kEcho,
                                  MakePayload<int>(1), 50)
                  .ok());
  ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_EQ(stats.messages, 2u);  // Request + response.
  EXPECT_EQ(stats.bytes, 150u);
  EXPECT_GE(stats.remote_messages, 1u);
}

TEST(ClusterTest, UnknownTargetDoesNotCrash) {
  Cluster cluster;
  cluster.Send(42, kEcho, MakePayload<int>(0));
  // A Call to an unknown node leaves a pending future that shutdown
  // resolves with nullptr.
  auto f = cluster.Call(42, kEcho, MakePayload<int>(0));
  cluster.Shutdown();
  EXPECT_EQ(f.get(), nullptr);
}

TEST(ClusterTest, CallAfterShutdownReturnsUnavailable) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kEcho, [&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });
  node->Start();
  cluster.Shutdown();
  auto result =
      cluster.CallAndWait(node->id(), kEcho, MakePayload<int>(1));
  EXPECT_TRUE(result.status().IsUnavailable());
}

TEST(ClusterTest, ShutdownIsIdempotent) {
  Cluster cluster;
  cluster.AddNode()->Start();
  cluster.Shutdown();
  cluster.Shutdown();
}

// ---------------------------------------------------------------------
// Latency model

TEST(ClusterLatencyTest, RoundTripRespectsLatency) {
  ClusterOptions opts;
  opts.latency = std::chrono::microseconds(2000);
  Cluster cluster(opts);
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kEcho, [&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });
  node->Start();

  Stopwatch sw;
  ASSERT_TRUE(
      cluster.CallAndWait(node->id(), kEcho, MakePayload<int>(1)).ok());
  // Request + response each pay one latency.
  EXPECT_GE(sw.ElapsedMicros(), 3500.0);
}

TEST(ClusterLatencyTest, FifoPreservedUnderLatency) {
  ClusterOptions opts;
  opts.latency = std::chrono::microseconds(200);
  Cluster cluster(opts);
  ComputeNode* node = cluster.AddNode();
  std::vector<int> order;
  std::mutex mu;
  node->RegisterHandler(kEcho, [&](const Message& m) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(PayloadAs<int>(m.payload));
  });
  node->Start();
  for (int i = 0; i < 50; ++i) {
    cluster.Send(node->id(), kEcho, MakePayload<int>(i));
  }
  for (int spin = 0; spin < 500; ++spin) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == 50) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[size_t(i)], i);
}

TEST(ClusterLatencyTest, BandwidthChargesLargeMessages) {
  ClusterOptions opts;
  opts.bandwidth_bytes_per_us = 1.0;  // 1 byte per microsecond.
  Cluster cluster(opts);
  ComputeNode* node = cluster.AddNode();
  node->RegisterHandler(kEcho, [&cluster](const Message& m) {
    cluster.Respond(m, m.payload, 1);
  });
  node->Start();
  Stopwatch sw;
  ASSERT_TRUE(cluster
                  .CallAndWait(node->id(), kEcho, MakePayload<int>(1),
                               /*approx_bytes=*/3000)
                  .ok());
  EXPECT_GE(sw.ElapsedMicros(), 2500.0);  // ~3000us transfer time.
}

}  // namespace
}  // namespace semtree
