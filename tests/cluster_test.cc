// Copyright 2026 The SemTree Authors
//
// Tests for the simulated cluster: RPC, forwarding, replies that travel
// with their request, which thread runs a node's handler, how many
// threads a cluster starts, the latency model and shutdown semantics.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/stopwatch.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// RPC

constexpr uint32_t kEcho = 1;
constexpr uint32_t kAddOne = 2;
constexpr uint32_t kRelay = 3;

TEST(ClusterTest, BasicCallResponse) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });

  auto result = cluster.CallAndWait(node->id(), kEcho,
                                    MakePayload<int>(41));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(PayloadAs<int>(*result), 41);
}

TEST(ClusterTest, ManyConcurrentCalls) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, MakePayload<int>(PayloadAs<int>(m.payload) + 1));
  });

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

TEST(ClusterTest, CallAndWaitFromAHandlerFailsAtOnce) {
  // A handler must not wait on another node: its CallAndWait sends
  // nothing and fails at once, and the handler still answers its own
  // caller.
  Cluster cluster;
  ComputeNode* b = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });
  NodeId b_id = b->id();
  ComputeNode* a = cluster.AddNode([&cluster, b_id](const Message& m) {
    Status inner =
        cluster.CallAndWait(b_id, kAddOne, m.payload, 8, m.to).status();
    cluster.Respond(m, MakePayload<Status>(inner));
  });

  auto result = cluster.CallAndWait(a->id(), kRelay, MakePayload<int>(4));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(PayloadAs<Status>(*result).IsFailedPrecondition())
      << PayloadAs<Status>(*result).ToString();
  EXPECT_EQ(b->processed(), 0u);
  EXPECT_EQ(cluster.Stats().calls, 1u);  // The outer call only.
}

TEST(ClusterTest, ForwardPreservesCorrelation) {
  // A chain of nodes forwards the request; only the last responds, yet
  // the original caller's future resolves (the insert protocol).
  Cluster cluster;
  std::vector<ComputeNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(
        cluster.AddNode([&cluster, &nodes, i](const Message& m) {
          if (i + 1 < 4) {
            PayloadAs<int>(m.payload) += 1;
            cluster.Forward(m, nodes[size_t(i) + 1]->id(), m.to);
          } else {
            cluster.Respond(
                m, MakePayload<int>(PayloadAs<int>(m.payload) + 100 * i));
          }
        }));
  }
  auto result =
      cluster.CallAndWait(nodes[0]->id(), kRelay, MakePayload<int>(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PayloadAs<int>(*result), 3 + 300);
  EXPECT_EQ(cluster.Stats().forwards, 3u);
}

TEST(ClusterTest, UnansweredCallResolvesWhenItsHandlerReturns) {
  // The handler never responds. The request's last copy goes away when
  // the handler returns, and with it the caller's Reply resolves with a
  // null payload, without waiting for Shutdown. The waits are bounded
  // so that a future left pending fails the test instead of hanging it.
  Cluster cluster;
  std::atomic<bool> release{false};
  ComputeNode* node = cluster.AddNode([&release](const Message&) {
    while (!release.load()) std::this_thread::yield();
  });
  std::future<Payload> f =
      cluster.Call(node->id(), kEcho, MakePayload<int>(1));
  // The handler is still running, so nothing has resolved the call.
  EXPECT_EQ(f.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  release.store(true);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(f.get(), nullptr);
  EXPECT_TRUE(cluster.CallAndWait(node->id(), kEcho, MakePayload<int>(2))
                  .status()
                  .IsUnavailable());
}

TEST(ClusterTest, StatsAccountMessagesAndBytes) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, m.payload, 100);
  });
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
  // No node takes a Call to an unknown node, so its future resolves
  // with nullptr at once, without waiting for shutdown.
  auto f = cluster.Call(42, kEcho, MakePayload<int>(0));
  EXPECT_TRUE(
      cluster.CallAndWait(42, kEcho, MakePayload<int>(0)).status()
          .IsUnavailable());
  cluster.Shutdown();
  EXPECT_EQ(f.get(), nullptr);
}

TEST(ClusterTest, CallAfterShutdownReturnsUnavailable) {
  Cluster cluster;
  ComputeNode* node = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });
  cluster.Shutdown();
  auto result =
      cluster.CallAndWait(node->id(), kEcho, MakePayload<int>(1));
  EXPECT_TRUE(result.status().IsUnavailable());
}

TEST(ClusterTest, ShutdownIsIdempotent) {
  Cluster cluster;
  cluster.AddNode([](const Message&) {});
  cluster.Shutdown();
  cluster.Shutdown();
}

// ---------------------------------------------------------------------
// Which thread runs a node's handler

constexpr uint32_t kProbe = 4;

// This process's thread count, from /proc/self/status; -1 if unread.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ComputeNodeTest, AddingNodesStartsNoThread) {
  // The cluster's pool is sized to the cores when the cluster is built;
  // a node is a queue and two flags, so 64 of them, all busy at once,
  // run on the same threads.
  Cluster cluster;
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  std::vector<ComputeNode*> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(cluster.AddNode([&cluster](const Message& m) {
      cluster.Respond(m, m.payload);
    }));
  }
  EXPECT_LE(ProcessThreads(), before);
  std::vector<std::future<Payload>> futures;
  for (ComputeNode* n : nodes) {
    futures.push_back(cluster.Call(n->id(), kEcho, MakePayload<int>(1)));
  }
  for (std::future<Payload>& f : futures) ASSERT_NE(f.get(), nullptr);
  EXPECT_LE(ProcessThreads(), before);
}

TEST(ComputeNodeTest, CallAndWaitRunsIdleNodeOnCaller) {
  Cluster cluster;
  std::thread::id a_ran_on;
  std::thread::id b_ran_on;
  ComputeNode* b = cluster.AddNode([&](const Message& m) {
    b_ran_on = std::this_thread::get_id();
    cluster.Respond(m, m.payload);
  });
  NodeId b_id = b->id();
  ComputeNode* a = cluster.AddNode([&](const Message& m) {
    a_ran_on = std::this_thread::get_id();
    cluster.Forward(m, b_id, m.to);
  });
  ASSERT_TRUE(
      cluster.CallAndWait(a->id(), kRelay, MakePayload<int>(1)).ok());
  // The caller ran A, and then B, which A forwarded to.
  EXPECT_EQ(a_ran_on, std::this_thread::get_id());
  EXPECT_EQ(b_ran_on, std::this_thread::get_id());
}

TEST(ComputeNodeTest, NetworkThreadDeliveriesRunOnThePool) {
  ClusterOptions opts;
  opts.latency = std::chrono::microseconds(1);
  Cluster cluster(opts);
  std::thread::id ran_on;
  ComputeNode* node = cluster.AddNode([&](const Message& m) {
    ran_on = std::this_thread::get_id();
    cluster.Respond(m, m.payload);
  });
  ASSERT_TRUE(
      cluster.CallAndWait(node->id(), kEcho, MakePayload<int>(1)).ok());
  EXPECT_NE(ran_on, std::thread::id());
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(ComputeNodeTest, OneHandlerAtATimeInFifoOrderPerSender) {
  // Four clients drive a four-node forwarding ring, mixing async calls
  // (run by the pool) with blocking ones (run by the caller when the
  // start node is idle), so every node is run by several threads.
  constexpr int kNodes = 4;
  constexpr int kClients = 4;
  constexpr int kCalls = 1000;
  struct Hop {
    int client = 0;
    int seq = 0;
    int hops = 0;
  };
  Cluster cluster;
  std::vector<ComputeNode*> nodes;
  std::atomic<bool> busy[kNodes] = {};
  std::atomic<int> overlaps{0};
  std::atomic<int> out_of_order{0};
  // Touched only by node n's handlers, which must run one at a time.
  std::vector<std::vector<int>> last_seq(
      kNodes, std::vector<int>(kClients, -1));
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(cluster.AddNode([&, n](const Message& m) {
      NodeId next = nodes[size_t((n + 1) % kNodes)]->id();
      if (busy[n].exchange(true)) overlaps.fetch_add(1);
      Hop& hop = PayloadAs<Hop>(m.payload);
      int& last = last_seq[size_t(n)][size_t(hop.client)];
      if (hop.seq <= last) out_of_order.fetch_add(1);
      last = hop.seq;
      ++hop.hops;
      busy[n].store(false);
      if (hop.hops < kNodes) {
        cluster.Forward(m, next, m.to);
      } else {
        cluster.Respond(m, m.payload);
      }
    }));
  }
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      NodeId start = nodes[size_t(c % kNodes)]->id();
      std::vector<std::future<Payload>> pending;
      for (int seq = 0; seq < kCalls; ++seq) {
        Payload payload = MakePayload<Hop>(Hop{c, seq, 0});
        if (seq % 2 == 0) {
          pending.push_back(cluster.Call(start, kRelay, payload));
          continue;
        }
        auto r = cluster.CallAndWait(start, kRelay, payload);
        if (!r.ok() || PayloadAs<Hop>(*r).hops != kNodes) failed++;
      }
      for (std::future<Payload>& f : pending) {
        Payload p = f.get();
        if (p == nullptr || PayloadAs<Hop>(p).hops != kNodes) failed++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
  uint64_t processed = 0;
  for (ComputeNode* n : nodes) processed += n->processed();
  EXPECT_EQ(processed, uint64_t(kNodes) * kClients * kCalls);
}

TEST(ComputeNodeTest, ForwardRunsAfterTheForwardingHandlerReturns) {
  // A forwards to B, which forwards back to A: A's second handler must
  // start only after its first has returned, and no handler may start
  // inside another's stack frame.
  Cluster cluster;
  NodeId a_id = -1;
  NodeId b_id = -1;
  int depth = 0;  // Handlers running on this test's thread.
  int max_depth = 0;
  bool a_first_returned = false;
  bool a_second_saw_first_returned = false;
  auto enter = [&]() { max_depth = std::max(max_depth, ++depth); };
  ComputeNode* a = cluster.AddNode([&](const Message& m) {
    enter();
    int& visits = PayloadAs<int>(m.payload);
    if (visits++ == 0) {
      cluster.Forward(m, b_id, a_id);
      a_first_returned = true;
    } else {
      a_second_saw_first_returned = a_first_returned;
      cluster.Respond(m, m.payload);
    }
    --depth;
  });
  ComputeNode* b = cluster.AddNode([&](const Message& m) {
    enter();
    cluster.Forward(m, a_id, b_id);
    --depth;
  });
  a_id = a->id();
  b_id = b->id();
  auto r = cluster.CallAndWait(a_id, kRelay, MakePayload<int>(0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(PayloadAs<int>(*r), 2);
  EXPECT_TRUE(a_second_saw_first_returned);
  EXPECT_EQ(max_depth, 1);
}

TEST(ComputeNodeTest, StopRunsQueuedMessagesAndDropsLaterOnes) {
  Cluster cluster;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<int> work_ran{0};
  std::atomic<int> probes_ran{0};
  ComputeNode* node = cluster.AddNode([&](const Message& m) {
    if (m.type == kProbe) {
      probes_ran.fetch_add(1);
      return;
    }
    if (!entered.exchange(true)) {
      while (!release.load()) std::this_thread::yield();
    }
    work_ran.fetch_add(1);
  });
  // A pool thread blocks in the first handler; four more wait behind
  // it.
  for (int i = 0; i < 5; ++i) cluster.Call(node->id(), kEcho, nullptr);
  while (!entered.load()) std::this_thread::yield();
  std::thread stopper([node]() { node->Stop(); });
  // Probe until the node refuses a message: Stop() has begun.
  int probes_queued = 0;
  for (;;) {
    Message probe;
    probe.type = kProbe;
    if (!node->Deliver(std::move(probe), /*claim=*/false)) break;
    ++probes_queued;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  release.store(true);
  stopper.join();
  EXPECT_EQ(work_ran.load(), 5);
  EXPECT_EQ(probes_ran.load(), probes_queued);
  // A call to the stopped node is dropped and fails at once.
  EXPECT_TRUE(cluster.CallAndWait(node->id(), kEcho, nullptr)
                  .status()
                  .IsUnavailable());
  EXPECT_EQ(work_ran.load(), 5);
}

// ---------------------------------------------------------------------
// Latency model

TEST(ClusterLatencyTest, RoundTripRespectsLatency) {
  ClusterOptions opts;
  opts.latency = std::chrono::microseconds(2000);
  Cluster cluster(opts);
  ComputeNode* node = cluster.AddNode([&cluster](const Message& m) {
    cluster.Respond(m, m.payload);
  });

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
  std::vector<int> order;
  std::mutex mu;
  ComputeNode* node = cluster.AddNode([&](const Message& m) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(PayloadAs<int>(m.payload));
  });
  for (int i = 0; i < 50; ++i) {
    cluster.Call(node->id(), kEcho, MakePayload<int>(i));
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

}  // namespace
}  // namespace semtree
